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

(* Both content hashes in one pass over the program: every byte goes to
   an accumulator that started from the name and to one that did not
   ({!Mp_util.Fnv.pair}), and folding allocates nothing. *)
let byte = Mp_util.Fnv.pair_byte
let int = Mp_util.Fnv.pair_int
let int64 = Mp_util.Fnv.pair_int64

let rec fold_regs l = function
  | [] -> ()
  | r :: rs ->
    int l (reg_id r);
    fold_regs l rs

let fold_instr l (i : instr) =
  Mp_util.Fnv.pair_string l i.op.Mp_isa.Instruction.mnemonic;
  int l (List.length i.dests);
  fold_regs l i.dests;
  int l (List.length i.srcs);
  fold_regs l i.srcs;
  (match i.imm with
   | None -> byte l 0
   | Some v ->
     byte l 1;
     int64 l v);
  (match i.mem_target with
   | None -> byte l 0
   | Some lv -> byte l (0x10 + level_id lv));
  match i.taken_pattern with
  | None -> byte l 0
  | Some pat ->
    byte l 1;
    int l (Array.length pat);
    for k = 0 to Array.length pat - 1 do
      byte l (if pat.(k) then 1 else 0)
    done

(* Everything a measurement can depend on through the program itself:
   the name (per-run RNGs are seeded from it), the instruction stream
   with operands, immediates, memory targets and branch patterns, the
   register initialisation, and the memory distribution (it drives
   address-stream synthesis at deployment). [imm_policy] and
   [provenance] are deliberately excluded — they are metadata about how
   the program was built, already reflected in the fields above
   (provenance additionally decides seed-independence, which the cache
   key accounts for separately).

   The body hash is the same fold minus the name: two programs that
   differ only in their label share it. The name matters to a
   measurement only through the per-run RNG, and only for programs
   that consume randomness (memory streams); name-insensitive layers —
   the steady-state replay table in particular — key on it and account
   for the RNG channel separately. *)
let compute_hashes ~name ~body ~reg_init ~memory_distribution =
  let l = Mp_util.Fnv.pair ~prefix:name in
  int l (Array.length body);
  Array.iter (fold_instr l) body;
  int l (List.length reg_init);
  List.iter
    (fun (r, v) ->
      int l (reg_id r);
      int64 l v)
    reg_init;
  (match memory_distribution with
   | None -> byte l 0
   | Some dist ->
     byte l 1;
     int l (List.length dist);
     List.iter
       (fun (lv, w) ->
         byte l (level_id lv);
         int64 l (Int64.bits_of_float w))
       dist);
  let named, bare = Mp_util.Fnv.values l in
  (Mp_util.Fnv.finish named, Mp_util.Fnv.finish bare)

let rehash t =
  let struct_hash, body_hash =
    compute_hashes ~name:t.name ~body:t.body ~reg_init:t.reg_init
      ~memory_distribution:t.memory_distribution
  in
  { t with struct_hash; body_hash }

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

let rec all_of_class cls = function
  | [] -> true
  | r :: rs -> Reg.class_of r = cls && all_of_class cls rs

(* at most one source of the (non-GPR) data class, every other one a
   GPR address source *)
let rec store_sources_ok data_class ~data = function
  | [] -> true
  | r :: rs ->
    let c = Reg.class_of r in
    if c = data_class && data_class <> Instruction.Gpr then
      (not data) && store_sources_ok data_class ~data:true rs
    else c = Instruction.Gpr && store_sources_ok data_class ~data rs

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
        Instruction.is_branch op || all_of_class op.data_class i.srcs
      | Instruction.Load ->
        (* only address sources, which are GPRs *)
        all_of_class Instruction.Gpr i.srcs
      | Instruction.Store ->
        (* exactly one data source of the data class; addresses are GPRs *)
        store_sources_ok op.data_class ~data:false i.srcs
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
