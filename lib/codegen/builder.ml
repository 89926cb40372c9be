open Mp_isa

type dep_mode = No_deps | Fixed of int | Random_range of int * int

type value_policy = Random_values | Constant of int64

type t = {
  arch : Arch.t;
  rng : Mp_util.Rng.t;
  mutable name : string;
  mutable ops : Instruction.t option array;
  mutable mem_targets : Ir.level option array;
  mutable patterns : bool array option array;
  mutable mem_distribution : (Ir.level * float) list option;
  mutable dep_mode : dep_mode;
  mutable reg_policy : value_policy;
  mutable imm_policy : value_policy;
  mutable provenance : string list;
}

let create arch rng =
  {
    arch;
    rng;
    name = "ubench";
    ops = [||];
    mem_targets = [||];
    patterns = [||];
    mem_distribution = None;
    dep_mode = No_deps;
    reg_policy = Random_values;
    imm_policy = Random_values;
    provenance = [];
  }

let set_skeleton t n =
  if Array.length t.ops > 0 then failwith "Builder: skeleton already defined";
  if n <= 0 then failwith "Builder: skeleton size must be positive";
  t.ops <- Array.make n None;
  t.mem_targets <- Array.make n None;
  t.patterns <- Array.make n None

let size t = Array.length t.ops

let require_skeleton t pass =
  if size t = 0 then failwith (Printf.sprintf "pass %S requires a skeleton" pass)

let require_filled t pass =
  if size t = 0 then require_skeleton t pass;
  Array.iteri
    (fun i op ->
      if op = None then
        failwith (Printf.sprintf "pass %S: slot %d has no instruction" pass i))
    t.ops

let record t name = t.provenance <- name :: t.provenance

(* ----- operand wiring --------------------------------------------------- *)

let imm_value t (op : Instruction.t) =
  if not op.has_imm then None
  else
    let bits = max 1 (min 62 op.imm_bits) in
    match t.imm_policy with
    | Constant v -> Some (Int64.logand v (Int64.sub (Int64.shift_left 1L bits) 1L))
    | Random_values ->
      Some (Int64.of_int (Mp_util.Rng.int t.rng (1 lsl (min bits 30))))

(* [n] sources of class [cls], taken in order *)
let rec sources alloc cls n =
  if n = 0 then []
  else
    let r = Reg_alloc.source alloc cls in
    if n = 1 then Reg_alloc.one alloc r else r :: sources alloc cls (n - 1)

(* First wiring pass: default allocation from the rotating pools, built
   straight into the body's instruction. Operand lists end in the
   allocator's shared one-element lists. *)
let default_wire t alloc index op =
  let op = Option.get op in
  let imm = imm_value t op in
  let module R = Reg_alloc in
  match op.mem with
  | Instruction.Load ->
    let b = R.base alloc in
    let srcs =
      if op.indexed then b :: R.one alloc (R.source alloc Instruction.Gpr)
      else R.one alloc b
    in
    let upd = if op.update then R.one alloc b else [] in
    let dests =
      if not op.has_dest then upd
      else
        let d = R.dest alloc op.data_class in
        if op.update then d :: upd else R.one alloc d
    in
    { Ir.index; op; dests; srcs; imm; mem_target = t.mem_targets.(index);
      taken_pattern = None }
  | Instruction.Store ->
    let b = R.base alloc in
    let data = R.source alloc op.data_class in
    let srcs =
      data
      :: (if op.indexed then b :: R.one alloc (R.source alloc Instruction.Gpr)
          else R.one alloc b)
    in
    { Ir.index; op; dests = (if op.update then R.one alloc b else []); srcs;
      imm; mem_target = t.mem_targets.(index); taken_pattern = None }
  | Instruction.No_mem ->
    if Instruction.is_branch op then
      { Ir.index; op; dests = []; srcs = []; imm; mem_target = None;
        taken_pattern = t.patterns.(index) }
    else
      let dests =
        if op.exec_class = Instruction.Cmp_op then
          R.one alloc (R.dest alloc Instruction.Cr)
        else if op.has_dest then R.one alloc (R.dest alloc op.data_class)
        else []
      in
      { Ir.index; op; dests; srcs = sources alloc op.data_class op.srcs; imm;
        mem_target = None; taken_pattern = t.patterns.(index) }

(* The distance back to the producer an instruction should consume,
   drawn for every instruction whether or not it can use one (so the
   rng advances exactly once per Random_range instruction); 0 for
   none. *)
let pick_distance t n =
  match t.dep_mode with
  | No_deps -> 0
  | Fixed d -> if d >= 1 && d < n then d else 0
  | Random_range (lo, hi) ->
    let lo = max 1 lo and hi = max 1 (min hi (n - 1)) in
    if hi < lo then 0 else Mp_util.Rng.int_in t.rng lo hi

(* Whether an instruction's first source can be chained, and through
   which register class: loads chase through the base, stores and
   computes through their data class. *)
let chainable (op : Instruction.t) =
  match op.mem with
  | Instruction.Load | Instruction.Store -> true
  | Instruction.No_mem -> not (Instruction.is_branch op || op.srcs = 0)

let wanted_class (op : Instruction.t) =
  match op.mem with
  | Instruction.Load -> Instruction.Gpr
  | Instruction.Store | Instruction.No_mem -> op.data_class

let rec dest_of_class cls = function
  | [] -> None
  | r :: rs -> if Reg.class_of r = cls then Some r else dest_of_class cls rs

(* the nearest destination of class [cls] at or before slot [j], looking
   at most 8 slots further back, wrapping around the body *)
let rec scan_producer (body : Ir.instr array) cls j steps =
  if steps > 8 then None
  else
    let n = Array.length body in
    let j = ((j mod n) + n) mod n in
    match dest_of_class cls body.(j).Ir.dests with
    | Some _ as r -> r
    | None -> scan_producer body cls (j - 1) (steps + 1)

(* Dependency pass: point the first data source (the base register, for
   loads) at the destination of the instruction [d] earlier whose result
   class matches, scanning a small window backwards for a compatible
   producer. The chain wraps around the endless loop: instruction i
   consumes the result produced d slots earlier, modulo the body, so the
   dependence carries across iterations. Only sources change, so the
   producers' destinations read here are final. *)
let apply_dependency t (body : Ir.instr array) =
  let n = Array.length body in
  for i = 0 to n - 1 do
    let d = pick_distance t n in
    let w = body.(i) in
    if d > 0 && chainable w.Ir.op then begin
      let cls = wanted_class w.Ir.op in
      match (scan_producer body cls (i - d) 0, w.Ir.srcs) with
      | Some producer, first :: rest when Reg.class_of first = cls ->
        body.(i) <- { w with Ir.srcs = producer :: rest }
      | _ -> ()
    end
  done

let value_for t =
  match t.reg_policy with
  | Constant v -> fun _ -> v
  | Random_values -> fun () -> Mp_util.Rng.bits64 t.rng

(* Registers in order of first use (sources before destinations within
   an instruction), each drawing its initial value then. *)
let reg_init t (body : Ir.instr array) =
  let seen = Bytes.make Reg.n_slots '\000' in
  let value = value_for t in
  let acc = ref [] in
  let rec note = function
    | [] -> ()
    | r :: rs ->
      let k = Reg.slot r in
      if Bytes.get seen k = '\000' then begin
        Bytes.set seen k '\001';
        acc := (r, value ()) :: !acc
      end;
      note rs
  in
  Array.iter
    (fun (i : Ir.instr) ->
      note i.Ir.srcs;
      note i.Ir.dests)
    body;
  List.rev !acc

let finalize t =
  require_filled t "finalize";
  let alloc = Reg_alloc.create () in
  let body = Array.mapi (default_wire t alloc) t.ops in
  apply_dependency t body;
  let reg_init = reg_init t body in
  (* hashed here, once, so cache keys downstream are a cheap fold over
     precomputed fields rather than a per-lookup serialisation of the
     whole program *)
  let struct_hash, body_hash =
    Ir.compute_hashes ~name:t.name ~body ~reg_init
      ~memory_distribution:t.mem_distribution
  in
  let program =
    {
      Ir.name = t.name;
      body;
      reg_init;
      imm_policy =
        (match t.imm_policy with
         | Random_values -> "random"
         | Constant v -> Printf.sprintf "const:%Ld" v);
      memory_distribution = t.mem_distribution;
      provenance = List.rev t.provenance;
      struct_hash;
      body_hash;
    }
  in
  match Ir.validate program with
  | Ok () -> program
  | Error e -> failwith (Printf.sprintf "Builder.finalize: %s" e)
