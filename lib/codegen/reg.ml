type t = Gpr of int | Fpr of int | Vsr of int | Cr_field of int | Ctr

let rank = function
  | Gpr _ -> 0
  | Fpr _ -> 1
  | Vsr _ -> 2
  | Cr_field _ -> 3
  | Ctr -> 4

let index = function
  | Gpr i | Fpr i | Vsr i | Cr_field i -> i
  | Ctr -> 0

let compare a b =
  match Stdlib.compare (rank a) (rank b) with
  | 0 -> Stdlib.compare (index a) (index b)
  | c -> c

let equal a b = compare a b = 0

let to_string = function
  | Gpr i -> Printf.sprintf "r%d" i
  | Fpr i -> Printf.sprintf "f%d" i
  | Vsr i -> Printf.sprintf "vs%d" i
  | Cr_field i -> Printf.sprintf "cr%d" i
  | Ctr -> "ctr"

let pp ppf r = Format.pp_print_string ppf (to_string r)

let class_of = function
  | Gpr _ -> Mp_isa.Instruction.Gpr
  | Fpr _ -> Mp_isa.Instruction.Fpr
  | Vsr _ -> Mp_isa.Instruction.Vsr
  | Cr_field _ | Ctr -> Mp_isa.Instruction.Cr

let file_size = function
  | Mp_isa.Instruction.Gpr | Mp_isa.Instruction.Fpr -> 32
  | Mp_isa.Instruction.Vsr -> 64
  | Mp_isa.Instruction.Cr -> 8

let n_gpr = file_size Mp_isa.Instruction.Gpr
let n_fpr = file_size Mp_isa.Instruction.Fpr
let n_vsr = file_size Mp_isa.Instruction.Vsr
let n_cr = file_size Mp_isa.Instruction.Cr
let n_slots = n_gpr + n_fpr + n_vsr + n_cr + 1

let in_file r i n =
  if i < 0 || i >= n then invalid_arg ("Reg.slot: " ^ to_string r);
  i

let slot r =
  match r with
  | Gpr i -> in_file r i n_gpr
  | Fpr i -> n_gpr + in_file r i n_fpr
  | Vsr i -> n_gpr + n_fpr + in_file r i n_vsr
  | Cr_field i -> n_gpr + n_fpr + n_vsr + in_file r i n_cr
  | Ctr -> n_slots - 1

let make cls i =
  if i < 0 || i >= file_size cls then invalid_arg "Reg.make: index";
  match cls with
  | Mp_isa.Instruction.Gpr -> Gpr i
  | Mp_isa.Instruction.Fpr -> Fpr i
  | Mp_isa.Instruction.Vsr -> Vsr i
  | Mp_isa.Instruction.Cr -> Cr_field i
