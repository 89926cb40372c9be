open Mp_isa

type level = Mp_uarch.Cache_geometry.level

type instr = {
  index : int;
  op : Instruction.t;
  dests : Reg.t list;
  srcs : Reg.t list;
  imm : int64 option;
  mem_target : level option;
  taken_pattern : bool array option;
}

type t = {
  name : string;
  body : instr array;
  reg_init : (Reg.t * int64) list;
  imm_policy : string;
  memory_distribution : (level * float) list option;
  provenance : string list;
  struct_hash : int64;
  body_hash : int64;
}

let size t = Array.length t.body

(* ----- structural content hash ------------------------------------------- *)

(* Small dense ids for the hash folds: a register is its file rank and
   index, a hierarchy level its position. Both are total and injective,
   so the fold never conflates distinct operands. *)
let reg_id r =
  match (r : Reg.t) with
  | Reg.Gpr i -> i
  | Reg.Fpr i -> 0x100 + i
  | Reg.Vsr i -> 0x200 + i
  | Reg.Cr_field i -> 0x300 + i
  | Reg.Ctr -> 0x400

let level_id = function
  | Mp_uarch.Cache_geometry.L1 -> 1
  | Mp_uarch.Cache_geometry.L2 -> 2
  | Mp_uarch.Cache_geometry.L3 -> 3
  | Mp_uarch.Cache_geometry.MEM -> 4

let fold_regs h rs =
  List.fold_left
    (fun h r -> Mp_util.Fnv.int h (reg_id r))
    (Mp_util.Fnv.int h (List.length rs))
    rs

let fold_instr h (i : instr) =
  let open Mp_util.Fnv in
  let h = string h i.op.Mp_isa.Instruction.mnemonic in
  let h = fold_regs h i.dests in
  let h = fold_regs h i.srcs in
  let h =
    match i.imm with None -> byte h 0 | Some v -> int64 (byte h 1) v
  in
  let h =
    match i.mem_target with
    | None -> byte h 0
    | Some l -> byte h (0x10 + level_id l)
  in
  match i.taken_pattern with
  | None -> byte h 0
  | Some pat ->
    Array.fold_left bool (int (byte h 1) (Array.length pat)) pat

(* Everything a measurement can depend on through the program itself:
   the name (per-run RNGs are seeded from it), the instruction stream
   with operands, immediates, memory targets and branch patterns, the
   register initialisation, and the memory distribution (it drives
   address-stream synthesis at deployment). [imm_policy] and
   [provenance] are deliberately excluded — they are metadata about how
   the program was built, already reflected in the fields above
   (provenance additionally decides seed-independence, which the cache
   key accounts for separately). *)
let fold_content h ~body ~reg_init ~memory_distribution =
  let open Mp_util.Fnv in
  let h = int h (Array.length body) in
  let h = Array.fold_left fold_instr h body in
  let h = int h (List.length reg_init) in
  let h =
    List.fold_left
      (fun h (r, v) -> int64 (int h (reg_id r)) v)
      h reg_init
  in
  match memory_distribution with
  | None -> byte h 0
  | Some dist ->
    List.fold_left
      (fun h (l, w) -> int64 (byte h (level_id l)) (Int64.bits_of_float w))
      (int (byte h 1) (List.length dist))
      dist

let compute_struct_hash ~name ~body ~reg_init ~memory_distribution =
  let open Mp_util.Fnv in
  finish
    (fold_content (string seed name) ~body ~reg_init ~memory_distribution)

(* Same content fold minus the name: two programs that differ only in
   their label collapse to the same body hash. The name matters to a
   measurement only through the per-run RNG, and only for programs
   that consume randomness (memory streams); name-insensitive layers —
   the steady-state replay table in particular — key on this hash and
   account for the RNG channel separately. *)
let compute_body_hash ~body ~reg_init ~memory_distribution =
  Mp_util.Fnv.(finish (fold_content seed ~body ~reg_init ~memory_distribution))

let rehash t =
  { t with
    struct_hash =
      compute_struct_hash ~name:t.name ~body:t.body ~reg_init:t.reg_init
        ~memory_distribution:t.memory_distribution;
    body_hash =
      compute_body_hash ~body:t.body ~reg_init:t.reg_init
        ~memory_distribution:t.memory_distribution }

let struct_hash t = t.struct_hash

let body_hash t = t.body_hash

let has_memory t =
  Array.exists (fun i -> Mp_isa.Instruction.is_memory i.op) t.body

let instruction_mix t =
  let table = Hashtbl.create 32 in
  Array.iter
    (fun i ->
      let m = i.op.Instruction.mnemonic in
      Hashtbl.replace table m (1 + Option.value ~default:0 (Hashtbl.find_opt table m)))
    t.body;
  Hashtbl.fold (fun m c acc -> (m, c) :: acc) table []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let memory_instructions t =
  Array.to_list t.body
  |> List.filter (fun i -> Instruction.is_memory i.op)

let check_instr i =
  let op = i.op in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if Instruction.is_memory op && i.mem_target = None then
    fail "%s at %d: memory op without target level" op.mnemonic i.index
  else if (not (Instruction.is_memory op)) && i.mem_target <> None then
    fail "%s at %d: non-memory op with target level" op.mnemonic i.index
  else
    let src_ok =
      match op.mem with
      | Instruction.No_mem ->
        (* data sources follow the instruction's register file *)
        Instruction.is_branch op
        || List.for_all (fun r -> Reg.class_of r = op.data_class) i.srcs
      | Instruction.Load ->
        (* only address sources, which are GPRs *)
        List.for_all (fun r -> Reg.class_of r = Instruction.Gpr) i.srcs
      | Instruction.Store ->
        (* exactly one data source of the data class; addresses are GPRs *)
        let data, addr =
          List.partition
            (fun r ->
              Reg.class_of r = op.data_class
              && op.data_class <> Instruction.Gpr)
            i.srcs
        in
        List.length data <= 1
        && List.for_all (fun r -> Reg.class_of r = Instruction.Gpr) addr
    in
    if not src_ok then
      fail "%s at %d: source register class mismatch" op.mnemonic i.index
    else Ok ()

let validate t =
  let rec check idx =
    if idx = Array.length t.body then Ok ()
    else
      let i = t.body.(idx) in
      if i.index <> idx then
        Error (Printf.sprintf "instruction %d carries index %d" idx i.index)
      else
        match check_instr i with Ok () -> check (idx + 1) | Error e -> Error e
  in
  check 0

(* over the two 32-bit halves as native ints: an [int64] threaded
   through a recursive call is boxed at every step *)
let popcount64 v =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go (go 0 (Int64.to_int v land 0xFFFF_FFFF))
    (Int64.to_int (Int64.shift_right_logical v 32))

let data_activity_factor t =
  (* register data only: immediates are narrow fields whose 64-bit
     popcount would skew the factor *)
  match List.map snd t.reg_init with
  | [] -> 0.5 (* uninitialised: assume typical random switching *)
  | vs ->
    let total =
      List.fold_left (fun acc v -> acc +. (float_of_int (popcount64 v) /. 64.0))
        0.0 vs
    in
    total /. float_of_int (List.length vs)

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>%s: %d instructions, %d distinct opcodes"
    t.name (size t) (List.length (instruction_mix t));
  (match t.memory_distribution with
   | None -> ()
   | Some d ->
     Format.fprintf ppf ", mem={%s}"
       (String.concat ","
          (List.map
             (fun (l, w) ->
               Printf.sprintf "%s:%.0f%%"
                 (Mp_uarch.Cache_geometry.level_to_string l) (w *. 100.0))
             d)));
  Format.fprintf ppf "@]"
