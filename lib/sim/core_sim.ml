open Mp_uarch
open Mp_codegen

(* ----- pipe kinds and classes ------------------------------------------ *)

let n_pipe_kinds = 6

let pipe_index = function
  | Pipe.Fxu -> 0
  | Pipe.Lsu -> 1
  | Pipe.Vsu -> 2
  | Pipe.Bru -> 3
  | Pipe.Store_port -> 4
  | Pipe.Update_port -> 5

let kinds_mask uses = Array.fold_left (fun m (k, _) -> m lor (1 lsl k)) 0 uses

(* The issue test: under [busy] (bit k set iff every instance of kind k
   is busy), an instruction can issue iff none of its fixed kinds is
   busy and, if it has alternates, one of them is free. *)
let can_issue ~fmask ~amask busy =
  fmask land busy = 0 && (amask = 0 || amask land lnot busy <> 0)

(* A pipe class is a distinct (fixed kinds, alternate kinds) mask pair:
   whether an instruction can issue under a [busy] mask depends on its
   class alone. The POWER7 ISA falls in 11 classes. Each class gets one
   bit of an int; classes past [always_bit] share it, and that bit is
   issuable under every mask, so an overflowing class can only make the
   issue walk's early exit rarer, never wrong. *)
let n_class_bits = 62
let always_bit = n_class_bits - 1

(* ----- opcode interning and decoding ----------------------------------- *)

(* One deployed instruction. *)
type dinstr = {
  op_id : int;
  fixed : (int * int) array;    (* (pipe kind, occupancy in uarch ticks) *)
  alt : (int * int) array;
  fmask : int;                  (* bit k set iff [fixed] uses pipe kind k *)
  amask : int;                  (* the same over [alt] *)
  cbit : int;                   (* pipe class bit *)
  latency : int;                (* base latency; memory ops: per access *)
  dests : int array;            (* dense register ids *)
  srcs : int array;
  mem : int;                    (* 0 none / 1 load / 2 store *)
  upd_ops : int;                (* fixup micro-ops accounted as FXU events *)
  stream : int array;
  pattern : bool array;         (* conditional branches only *)
}

(* What the simulator needs of one opcode's resource entry, decoded once
   per intern table and shared by every deploy of the opcode: the
   instruction minus its operands, stream and branch pattern. *)
type decoded = {
  d_uarch : Uarch_def.t;          (* the definition it was decoded for *)
  d_op : Mp_isa.Instruction.t option;  (* [None]: the implicit loop branch *)
  streamed : bool;                (* bound to an address stream at deploy *)
  proto : dinstr;                 (* no registers, stream or pattern *)
}

type opmap = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable decoded : decoded option array;  (* per id *)
  mutable loop_branch : decoded option;
  mutable count : int;
  classes : (int, int) Hashtbl.t;  (* fmask * 2^kinds + amask -> class bit *)
  issuable : int array;
      (* per busy mask: the bits of every class that can issue under it.
         Runs read it unlocked while a deploy on another domain may add
         a class: the new bit belongs to no instruction of a running
         program, so either value of the word is exact for the run. *)
  lock : Mutex.t;
      (* deploys may run on pool domains; the intern table and the
         decoded entries are the only mutable state they share, so
         every access takes the lock. Deterministic id assignment is
         the caller's job: Machine pre-interns every opcode in job
         order before fanning out. *)
  ranks : int array Atomic.t;
      (* per id, the rank of its name among the names interned when it
         was built; rebuilt under the lock once the table has grown,
         and published whole *)
}

let opmap_create () =
  { ids = Hashtbl.create 64; names = Array.make 64 "";
    decoded = Array.make 64 None; loop_branch = None; count = 0;
    classes = Hashtbl.create 16;
    issuable = Array.make (1 lsl n_pipe_kinds) (1 lsl always_bit);
    lock = Mutex.create (); ranks = Atomic.make [||] }

let opmap_size m = m.count

let grow a n fill =
  let bigger = Array.make n fill in
  Array.blit a 0 bigger 0 (Array.length a);
  bigger

(* [locked m f x y] is [f m x y] under the lock, which an exception
   (a definition that raises mid-decode) leaves free. The [_locked]
   helpers run under it. *)
let locked m f x y =
  Mutex.lock m.lock;
  match f m x y with
  | v -> Mutex.unlock m.lock; v
  | exception e -> Mutex.unlock m.lock; raise e

let intern_locked m name =
  match Hashtbl.find m.ids name with
  | id -> id
  | exception Not_found ->
    let id = m.count in
    Hashtbl.add m.ids name id;
    if id >= Array.length m.names then begin
      let n = 2 * Array.length m.names in
      m.names <- grow m.names n "";
      m.decoded <- grow m.decoded n None
    end;
    m.names.(id) <- name;
    m.count <- id + 1;
    id

let intern m name = locked m (fun m name () -> intern_locked m name) name ()

let opmap_name m id =
  if id < 0 || id >= m.count then invalid_arg "Core_sim.opmap_name";
  m.names.(id)

let name_ranks_locked m () () =
  let n = m.count in
  if Array.length (Atomic.get m.ranks) <> n then begin
    let by_name = Array.init n Fun.id in
    Array.sort (fun a b -> String.compare m.names.(a) m.names.(b)) by_name;
    let ranks = Array.make n 0 in
    Array.iteri (fun r id -> ranks.(id) <- r) by_name;
    Atomic.set m.ranks ranks
  end;
  Atomic.get m.ranks

(* Unlocked while the table has not grown: every id a caller holds was
   interned before it asked. *)
let name_ranks m =
  let r = Atomic.get m.ranks in
  if Array.length r = m.count then r else locked m name_ranks_locked () ()

let class_bit_locked m ~fmask ~amask =
  let key = (fmask lsl n_pipe_kinds) lor amask in
  match Hashtbl.find m.classes key with
  | bit -> bit
  | exception Not_found ->
    let bit = min (Hashtbl.length m.classes) always_bit in
    Hashtbl.add m.classes key bit;
    for busy = 0 to Array.length m.issuable - 1 do
      if can_issue ~fmask ~amask busy then
        m.issuable.(busy) <- m.issuable.(busy) lor (1 lsl bit)
    done;
    bit

let decode_locked m uarch op id ~fixed ~alt ~latency =
  let fmask = kinds_mask fixed and amask = kinds_mask alt in
  let mem, streamed, upd_ops =
    match op with
    | None -> (0, false, 0)
    | Some (op : Mp_isa.Instruction.t) ->
      let mem =
        match op.Mp_isa.Instruction.mem with
        | Mp_isa.Instruction.No_mem -> 0
        | Mp_isa.Instruction.Load -> 1
        | Mp_isa.Instruction.Store -> 2
      in
      ( mem,
        mem <> 0 && not op.Mp_isa.Instruction.prefetch,
        (if op.Mp_isa.Instruction.update then 1 else 0)
        + if op.Mp_isa.Instruction.algebraic then 1 else 0 )
  in
  { d_uarch = uarch; d_op = op; streamed;
    proto =
      { op_id = id; fixed; alt; fmask; amask;
        cbit = class_bit_locked m ~fmask ~amask; latency; dests = [||];
        srcs = [||]; mem; upd_ops; stream = [||]; pattern = [||] } }

let decode_op_locked m uarch (op : Mp_isa.Instruction.t) =
  let id = intern_locked m op.Mp_isa.Instruction.mnemonic in
  match m.decoded.(id) with
  | Some ({ d_op = Some o; _ } as d)
    when d.d_uarch == uarch && (o == op || o = op) -> d
  | _ ->
    let res = uarch.Uarch_def.resources op in
    (* occupancies become exact integer ticks over the uarch common
       denominator; [occ_ticks] raises if the definition's [occ_den]
       does not cover some occupancy, so a broken definition fails at
       deploy rather than silently losing precision *)
    let conv u =
      (pipe_index u.Uarch_def.pipe, Uarch_def.occ_ticks uarch u.Uarch_def.occupancy)
    in
    let d =
      decode_locked m uarch (Some op) id
        ~fixed:(Array.of_list (List.map conv res.Uarch_def.fixed))
        ~alt:(Array.of_list (List.map conv res.Uarch_def.alt))
        ~latency:res.Uarch_def.latency
    in
    m.decoded.(id) <- Some d;
    d

let decode_loop_branch_locked m uarch () =
  match m.loop_branch with
  | Some d when d.d_uarch == uarch -> d
  | _ ->
    let d =
      decode_locked m uarch None (intern_locked m "bdnz")
        ~fixed:[| (pipe_index Pipe.Bru, uarch.Uarch_def.occ_den) |] ~alt:[||]
        ~latency:1
    in
    m.loop_branch <- Some d;
    d

(* ----- deployed programs ------------------------------------------------ *)

type dprog = {
  body : dinstr array;
  n_regs : int;
  daf : float;
}

(* A deploy's register ids: {!Reg.slot}s numbered in order of first use,
   so [n_regs] counts only the registers the program touches. *)
type regmap = { ids_of_slot : int array; mutable n_ids : int }

let reg_id rm r =
  let s = Reg.slot r in
  let id = rm.ids_of_slot.(s) in
  if id >= 0 then id
  else begin
    let id = rm.n_ids in
    rm.ids_of_slot.(s) <- id;
    rm.n_ids <- id + 1;
    id
  end

let rec fill_regs rm a k = function
  | [] -> ()
  | r :: rest ->
    a.(k) <- reg_id rm r;
    fill_regs rm a (k + 1) rest

let reg_ids rm = function
  | [] -> [||]
  | rs ->
    let a = Array.make (List.length rs) 0 in
    fill_regs rm a 0 rs;
    a

(* placeholder for body slots not yet deployed, and for empty table
   slots *)
let no_instr =
  { op_id = -1; fixed = [||]; alt = [||]; fmask = 0; amask = 0; cbit = 0;
    latency = 0; dests = [||]; srcs = [||]; mem = 0; upd_ops = 0;
    stream = [||]; pattern = [||] }

let rec ints_equal (a : int array) b i =
  i < 0 || (a.(i) = b.(i) && ints_equal a b (i - 1))

(* Whether [c] is what deploying [proto] with these operands, stream
   and pattern would build. *)
let same_instr c (proto : dinstr) dests srcs stream pattern =
  c.op_id = proto.op_id && c.fixed == proto.fixed && c.alt == proto.alt
  && c.fmask = proto.fmask && c.amask = proto.amask && c.cbit = proto.cbit
  && c.latency = proto.latency && c.mem = proto.mem
  && c.upd_ops = proto.upd_ops && c.stream == stream && c.pattern == pattern
  && Array.length c.dests = Array.length dests
  && Array.length c.srcs = Array.length srcs
  && ints_equal c.dests dests (Array.length dests - 1)
  && ints_equal c.srcs srcs (Array.length srcs - 1)

(* A program's instructions that deploy to equal entries share one:
   nothing in a run tells two entries apart but their body position, and
   a 512-instruction bootstrap kernel has only as many distinct entries
   as its register rotation's period (with the stream's, for memory
   kernels). A deploy keeps its entries in this domain's [recent] table,
   in pairs of slots keyed by a hash of opcode, operands and first
   stream address; the table is built on a domain's first deploy and
   cleared by each. *)
let recent_size = 1024

let recent_key : dinstr array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make recent_size no_instr)

let recent_table () =
  let recent = Domain.DLS.get recent_key in
  Array.fill recent 0 recent_size no_instr;
  recent

let rec fold_ids h (a : int array) i =
  if i = Array.length a then h
  else fold_ids (Mp_util.Fnv.fold_int h a.(i)) a (i + 1)

(* [proto] with these operands, stream and pattern: an equal entry
   already in [recent], or a new one put there *)
let share recent (proto : dinstr) dests srcs stream pattern =
  let h = Mp_util.Fnv.fold_int Mp_util.Fnv.seed_int proto.op_id in
  let h = fold_ids (fold_ids h dests 0) srcs 0 in
  (* streams of one level differ in their first address *)
  let h =
    if Array.length stream > 0 then Mp_util.Fnv.fold_int h stream.(0) else h
  in
  let h = Mp_util.Fnv.finish_int h in
  let s0 = h land (recent_size - 2) in
  let s1 = s0 + 1 in
  if same_instr recent.(s0) proto dests srcs stream pattern then recent.(s0)
  else if same_instr recent.(s1) proto dests srcs stream pattern then
    recent.(s1)
  else begin
    let di = { proto with dests; srcs; stream; pattern } in
    (* a new entry takes the pair's free slot, else evicts the older *)
    if recent.(s0).op_id < 0 then recent.(s0) <- di
    else begin
      recent.(s1) <- recent.(s0);
      recent.(s0) <- di
    end;
    di
  end

let of_instr rm recent streams (d : decoded) (i : Ir.instr) =
  let dests = reg_ids rm i.Ir.dests in
  let srcs = reg_ids rm i.Ir.srcs in
  share recent d.proto dests srcs
    (if d.streamed then streams i.Ir.index else [||])
    (match i.Ir.taken_pattern with Some pat -> pat | None -> [||])

(* [f k d i] for each body instruction [i] at [k], in body order, with
   its decoded entry [d]: a run of instructions of one opcode decodes it
   once. *)
let iter_decoded m uarch (p : Ir.t) f =
  let body = p.Ir.body in
  if Array.length body > 0 then begin
    let d = ref (decode_op_locked m uarch body.(0).Ir.op) in
    for k = 0 to Array.length body - 1 do
      let i = body.(k) in
      if k > 0 && i.Ir.op != body.(k - 1).Ir.op then
        d := decode_op_locked m uarch i.Ir.op;
      f k !d i
    done
  end

let intern_program_locked m (p : Ir.t) () =
  let body = p.Ir.body in
  for k = 0 to Array.length body - 1 do
    let op = body.(k).Ir.op in
    if k = 0 || op != body.(k - 1).Ir.op then
      ignore (intern_locked m op.Mp_isa.Instruction.mnemonic)
  done;
  ignore (intern_locked m "bdnz")

let intern_program m p = locked m intern_program_locked p ()

(* [p] deployed under the lock, and how many of its instructions are
   streamed. Opcodes are met in body order, the loop-closing bdnz last,
   so an intern table meeting one for the first time numbers it in that
   order. *)
let deploy_locked m uarch streams (p : Ir.t) =
  let rm = { ids_of_slot = Array.make Reg.n_slots (-1); n_ids = 0 } in
  let n = Array.length p.Ir.body in
  let body = Array.make (n + 1) no_instr in
  let recent = recent_table () in
  let n_streamed = ref 0 in
  iter_decoded m uarch p (fun k d i ->
      if d.streamed then incr n_streamed;
      body.(k) <- of_instr rm recent streams d i);
  body.(n) <- (decode_loop_branch_locked m uarch ()).proto;
  ({ body; n_regs = max 1 rm.n_ids; daf = Ir.data_activity_factor p },
   !n_streamed)

(* [base], a deploy of [p], with its streamed instructions bound to
   [streams] instead: everything else — operands, patterns, the other
   instructions — is shared. *)
let rebind_locked m uarch streams (p : Ir.t) (base : dprog) =
  let body = Array.copy base.body in
  let recent = recent_table () in
  iter_decoded m uarch p (fun k d i ->
      if d.streamed then begin
        let b = base.body.(k) in
        body.(k) <- share recent b b.dests b.srcs (streams i.Ir.index) b.pattern
      end);
  { base with body }

let deploy ~uarch ~opmap ~streams p =
  locked opmap (fun m uarch p -> fst (deploy_locked m uarch streams p)) uarch p

(* Threads running the same program share its deploy. Nothing in a run
   mutates a [dprog], so sharing is safe; only streamed instructions,
   which bind per-thread address streams, are rebuilt. *)
let deploy_threads ~uarch ~opmap ~streams per_thread =
  locked opmap
    (fun m uarch per_thread ->
      let deployed = ref [] in
      Array.mapi
        (fun tid p ->
          match List.find_opt (fun (q, _, _) -> q == p) !deployed with
          | Some (_, dp, 0) -> dp
          | Some (_, dp, _) -> rebind_locked m uarch (streams tid) p dp
          | None ->
            let dp, n_streamed = deploy_locked m uarch (streams tid) p in
            deployed := (p, dp, n_streamed) :: !deployed;
            dp)
        per_thread)
    uarch per_thread

(* ----- activity --------------------------------------------------------- *)

type activity = {
  measured_cycles : int;
  threads : Measurement.counters array;
  op_issues : int array;
  level_loads : int array;
  switch_events : int;
  transitions : (int * int * int) list;
      (* (previous opcode id, next opcode id, count) over the dispatch bus *)
  daf : float;
  prefetches : int;
}

(* ----- the simulation --------------------------------------------------- *)

(* Process-wide period-skipping telemetry. Deliberately OUT of the
   [activity] record: skipped and dense runs must stay bit-identical
   counter-for-counter, so the only observable difference is wall-clock
   time and these monotone counters. *)
let period_hits_ctr = Atomic.make 0
let cycles_skipped_ctr = Atomic.make 0

let period_hits () = Atomic.get period_hits_ctr
let cycles_skipped () = Atomic.get cycles_skipped_ctr

type pending = {
  mutable di : int;      (* body index *)
  mutable it : int;      (* iteration *)
  mutable seq : int;     (* per-thread dispatch sequence number *)
  deps : int array;      (* producer seqs captured at dispatch (-1 = none) *)
  mutable n_deps : int;
  mutable live : bool;
}

type raw_counters = {
  mutable instrs : int;
  mutable dispatched : int;
  mutable fxu : int;
  mutable lsu : int;
  mutable vsu : int;
  mutable bru : int;
  mutable st : int;
  mutable l1 : int;
  mutable l2 : int;
  mutable l3 : int;
  mutable memc : int;
}

let zero_raw () =
  { instrs = 0; dispatched = 0; fxu = 0; lsu = 0; vsu = 0; bru = 0; st = 0;
    l1 = 0; l2 = 0; l3 = 0; memc = 0 }

type thread_state = {
  prog : dprog;
  lop : int array;            (* run-local opcode id per body index *)
  queue : pending array;      (* ring buffer of capacity window *)
  mutable q_head : int;
  mutable q_len : int;
  mutable pc : int;
  mutable iter : int;
  mutable iter_credit : int;  (* whole iterations credited by period skips *)
  mutable dispatch_seq : int;
  mutable in_flight : int;
  mutable stall_until : int;
  mutable last_dispatch_op : int;  (* run-local opcode id; -1 = none *)
  mutable starve_since : int;
      (* first cycle of the current stretch in which the thread held
         ready work and issued none of it; -1 = not in such a stretch *)
  comp_cal : int array;       (* completions calendar, ring on cycles *)
  cls_count : int array;      (* ready entries per pipe class bit *)
  mutable present : int;      (* bit c set iff cls_count.(c) > 0 *)
  reg_last_writer : int array; (* dispatch seq of the youngest writer *)
  (* completion times per in-flight dispatch seq, tagged ring *)
  comp_seq : int array;
  comp_time : int array;
  predictor : int array;      (* 2-bit counters per static instruction *)
  counters : raw_counters;
  (* Ready-set scheduling state. All of it is indexed by the physical
     queue slot (0..window-1). An entry is in exactly one place at a
     time: the ready list (operands available, rescanned for pipes each
     cycle, in dispatch order), the wakeup calendar (operand arrival
     cycle known but in the future), or the waiter chains (some
     producer has not even issued, so its completion time is unknown). *)
  n_wait : int array;         (* producers not yet issued, per slot *)
  ready_at : int array;       (* max known producer completion, per slot *)
  rnext : int array;          (* ready list links; -2 = not in the list *)
  rprev : int array;
  mutable rhead : int;
  mutable rtail : int;
  whead : int array;          (* per comp-ring slot: first waiter node *)
  wlink : int array;          (* waiter node (slot * 4 + dep) -> next node *)
  rcal : int array;           (* wakeup calendar: slot-chain head per cycle *)
  rcal_next : int array;      (* per slot: next in the same calendar cycle *)
}

let calendar_size = 16384

(* ----- per-domain run arena ---------------------------------------------- *)

(* A run's largest arrays: per thread slot the two calendars and the
   class counts, and one packed cache. Allocated fresh they go straight
   to the major heap on every run (the calendars alone are 16 K words
   each); the arena keeps them per domain instead. A run takes the
   arena and hands it back when it returns, so a run that raises leaves
   its domain without one and the next run starts from fresh arrays. *)
type slot = {
  s_comp_cal : int array;
  s_rcal : int array;
  s_cls_count : int array;
  mutable dirty_from : int;
  mutable dirty_to : int;
      (* the cycles whose calendar entries the last run may have left
         set; empty when [dirty_to < dirty_from] *)
}

type arena = {
  mutable slots : slot array;
  mutable cache : Cache_sim.t option;   (* packed, for [cache_geom] *)
  mutable cache_geom : Cache_geometry.t list;
}

let arena_key : arena option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let new_slot () =
  { s_comp_cal = Array.make calendar_size 0;
    s_rcal = Array.make calendar_size (-1);
    s_cls_count = Array.make n_class_bits 0;
    dirty_from = 0;
    dirty_to = -1 }

(* Back to [new_slot]'s state. *)
let reset_slot sl =
  if sl.dirty_to - sl.dirty_from >= calendar_size - 1 then begin
    Array.fill sl.s_comp_cal 0 calendar_size 0;
    Array.fill sl.s_rcal 0 calendar_size (-1)
  end
  else
    for c = sl.dirty_from to sl.dirty_to do
      let i = c land (calendar_size - 1) in
      sl.s_comp_cal.(i) <- 0;
      sl.s_rcal.(i) <- -1
    done;
  sl.dirty_from <- 0;
  sl.dirty_to <- -1;
  Array.fill sl.s_cls_count 0 n_class_bits 0

(* This domain's arena with at least [nthreads] reset slots, taken out
   of the domain until [give_back]. *)
let take_arena nthreads =
  let a =
    match Domain.DLS.get arena_key with
    | Some a ->
      Domain.DLS.set arena_key None;
      a
    | None -> { slots = [||]; cache = None; cache_geom = [] }
  in
  let have = Array.length a.slots in
  if have < nthreads then
    a.slots <-
      Array.init nthreads (fun i -> if i < have then a.slots.(i) else new_slot ());
  for i = 0 to nthreads - 1 do
    reset_slot a.slots.(i)
  done;
  a

let give_back a = Domain.DLS.set arena_key (Some a)

(* The run's cache: the arena's packed one, reset, when the packed model
   is selected and the geometry matches; the list model is built fresh.
   The model is read per run, as [Cache_sim.create] reads it. *)
let arena_cache a (uarch : Uarch_def.t) =
  let geom = uarch.Uarch_def.caches in
  match (Cache_sim.default_model (), a.cache) with
  | Cache_sim.List_ref, _ -> Cache_sim.create ~model:Cache_sim.List_ref uarch
  | Cache_sim.Packed, Some c when a.cache_geom == geom || a.cache_geom = geom ->
    Cache_sim.reset c;
    c
  | Cache_sim.Packed, _ ->
    let c = Cache_sim.create ~model:Cache_sim.Packed uarch in
    a.cache <- Some c;
    a.cache_geom <- geom;
    c

(* Without flambda, [Stdlib.max]/[min] compare polymorphically through
   the runtime; these are the int-specialised versions the hot loop
   uses. *)
let imax (a : int) b = if a >= b then a else b
let imin (a : int) b = if a <= b then a else b

let count_pipe c kind upd_ops =
  match kind with
  | 0 -> c.fxu <- c.fxu + 1
  | 1 -> c.lsu <- c.lsu + 1
  | 2 -> c.vsu <- c.vsu + 1
  | 3 -> c.bru <- c.bru + 1
  | 4 -> c.st <- c.st + 1
  | _ -> c.fxu <- c.fxu + upd_ops

(* fingerprint fields: the bytes of [string_of_int], without the string *)
let add_int = Mp_util.Decimal.add_int

let level_id = function
  | Cache_geometry.L1 -> 0
  | Cache_geometry.L2 -> 1
  | Cache_geometry.L3 -> 2
  | Cache_geometry.MEM -> 3

(* A boundary snapshot: the measured-counter state at a fingerprinted
   thread-0 iteration crossing. When a later crossing reproduces the
   fingerprint, (current - snapshot) is the exact per-period delta of
   every counter, and the cycle delta is the period length. *)
type boundary = {
  b_cycle : int;
  b_iters : int array;
  b_raw : raw_counters array;
  b_op_issues : int array;
  b_level_loads : int array;
  b_switch : int;
  b_transitions : int array;
  b_cache : int array;
}

(* One fingerprinted period's worth of every measured counter — the
   by-product of a period skip that the replay layer stores. All
   deltas are exact integers taken BEFORE the skip credits them, so
   [activity + k * delta] reproduces a dense run with k more periods
   bit-for-bit (see Replay for the validity conditions). Only captured
   when every thread advances the same number of iterations per period
   ([pd_period_iters]); heterogeneous-rate deployments replay at their
   recorded window only. *)
type period_delta = {
  pd_period_iters : int;  (* loop iterations per period, every thread *)
  pd_cycles : int;        (* cycles per period *)
  pd_min_total : int;     (* smallest warmup+measure the delta extends to:
                             max thread iteration at the match, plus 1 *)
  pd_counters : int array array;
      (* per thread: instrs, dispatched, fxu, lsu, vsu, bru, st,
         l1, l2, l3, memc — the raw_counters fields in order *)
  pd_op_issues : (int * int) list;      (* (opcode id, delta), sparse *)
  pd_level_loads : int array;
  pd_switch : int;
  pd_transitions : (int * int * int) list;  (* (prev id, next id, delta) *)
  pd_prefetches : int;
}

let run_ex ~uarch ~opmap ?mem_latency ?(warmup = 1) ?(measure = 2)
    ?(period = true) progs =
  let nthreads = Array.length progs in
  if nthreads = 0 then invalid_arg "Core_sim.run: no threads";
  let mem_lat =
    match mem_latency with Some l -> l | None -> uarch.Uarch_def.mem_latency
  in
  let window = uarch.Uarch_def.window in
  let total_iters = warmup + measure in
  (* Period skipping pays for its fingerprints only when there are
     enough measured iterations to elide; short windows run dense. *)
  let period_on = period && measure >= 4 in
  let arena = take_arena nthreads in
  let cache = arena_cache arena uarch in
  let latencies =
    (* load-to-use latency per source level id *)
    [| (Uarch_def.cache uarch Cache_geometry.L1).Cache_geometry.latency_cycles;
       (Uarch_def.cache uarch Cache_geometry.L2).Cache_geometry.latency_cycles;
       (Uarch_def.cache uarch Cache_geometry.L3).Cache_geometry.latency_cycles;
       mem_lat |]
  in
  (* One cycle is [tick] simulator ticks: the uarch common denominator
     of every occupancy, so each occupancy is a whole number of ticks
     and all busy-time bookkeeping below is exact integer
     arithmetic. *)
  let tick = uarch.Uarch_def.occ_den in
  (* Pipe instances: busy-time RESIDUALS in ticks relative to
     [pipe_now], kept >= 0. Relative storage plus integer arithmetic
     makes the residual pattern independent of the absolute cycle
     count: rebasing subtracts whole cycles' worth of ticks,
     reservation adds the occupancy's ticks, the free test compares
     against one cycle. An identical residual pattern therefore evolves
     identically at any point in the run — for *every* occupancy, which
     is what makes the period detector's state fingerprint exactly
     repeating for every kernel. *)
  let pipe_free =
    Array.init n_pipe_kinds (fun k ->
        let kind =
          match k with
          | 0 -> Pipe.Fxu | 1 -> Pipe.Lsu | 2 -> Pipe.Vsu | 3 -> Pipe.Bru
          | 4 -> Pipe.Store_port | _ -> Pipe.Update_port
        in
        Array.make (max 1 (Uarch_def.pipe_count uarch kind)) 0)
  in
  let pipe_now = ref 0 in
  let op_issues = Array.make (max 1 (opmap_size opmap + 64)) 0 in
  let level_loads = Array.make 4 0 in
  let switch_events = ref 0 in
  (* Run-local opcode ids: the L distinct opcodes these programs deploy
     are numbered 0..L-1 in ascending global-id order. All global ids
     are < opmap_size at run entry (interning happens at deploy, never
     mid-run). *)
  let local_of = Array.make (max 1 (opmap_size opmap)) (-1) in
  Array.iter
    (fun (p : dprog) ->
      Array.iter (fun (d : dinstr) -> local_of.(d.op_id) <- 0) p.body)
    progs;
  let n_local = ref 0 in
  Array.iteri
    (fun g l ->
      if l >= 0 then begin
        local_of.(g) <- !n_local;
        incr n_local
      end)
    local_of;
  let global_of = Array.make !n_local 0 in
  Array.iteri (fun g l -> if l >= 0 then global_of.(l) <- g) local_of;
  (* dispatch-bus opcode transitions: a flat dense L x L matrix over
     run-local opcode pairs — the per-dispatch Hashtbl this replaces
     dominated the dispatch loop, and an opmap_size^2 matrix dominated
     the copies every boundary snapshot takes. Local ids ascend with
     global ids, so walking the matrix in key order lists pairs in
     ascending global (prev, next) order. *)
  let trans_stride = !n_local in
  let transitions = Array.make (trans_stride * trans_stride) 0 in
  let transition_list counts =
    let acc = ref [] in
    for key = Array.length counts - 1 downto 0 do
      let n = counts.(key) in
      if n <> 0 then
        acc :=
          (global_of.(key / trans_stride), global_of.(key mod trans_stride), n)
          :: !acc
    done;
    !acc
  in
  (* scratch for pipe-slot selection, hoisted out of the cycle loop *)
  let max_fixed =
    Array.fold_left
      (fun acc (p : dprog) ->
        Array.fold_left
          (fun acc (d : dinstr) -> max acc (Array.length d.fixed))
          acc p.body)
      1 progs
  in
  let fixed_slots = Array.make max_fixed (-1) in
  let threads =
    Array.mapi
      (fun ti prog ->
        let sl = arena.slots.(ti) in
        {
          prog;
          lop = Array.map (fun (d : dinstr) -> local_of.(d.op_id)) prog.body;
          queue =
            Array.init window (fun _ ->
                { di = 0; it = 0; seq = 0; deps = Array.make 4 (-1);
                  n_deps = 0; live = false });
          q_head = 0;
          q_len = 0;
          pc = 0;
          iter = 0;
          iter_credit = 0;
          dispatch_seq = 0;
          in_flight = 0;
          stall_until = 0;
          last_dispatch_op = -1;
          starve_since = -1;
          comp_cal = sl.s_comp_cal;
          cls_count = sl.s_cls_count;
          present = 0;
          reg_last_writer = Array.make prog.n_regs (-1);
          comp_seq = Array.make (4 * window) (-1);
          comp_time = Array.make (4 * window) 0;
          predictor = Array.make (Array.length prog.body) 2;
          counters = zero_raw ();
          n_wait = Array.make window 0;
          ready_at = Array.make window 0;
          rnext = Array.make window (-2);
          rprev = Array.make window (-2);
          rhead = -1;
          rtail = -1;
          whead = Array.make (4 * window) (-1);
          wlink = Array.make (window * 4) (-1);
          rcal = sl.s_rcal;
          rcal_next = Array.make window (-1);
        })
      progs
  in
  let measuring = ref false in
  let start_cycle = ref 0 in
  let cycle = ref 0 in
  (* A pipe instance can accept an op at cycle [now] when its busy time
     runs out before the end of the cycle; reserving from the
     sub-cycle free tick (not the cycle boundary) lets occupancies like
     119/100 sustain their exact 100/119 throughput. *)
  (* [busy]: bit k set iff every instance of kind k is busy this cycle
     (no residual below [tick]). It is updated wherever a residual
     changes, so the issue walk rejects an entry with two mask tests
     instead of scanning instance arrays; [free_slot] still picks the
     lowest-index free instance. *)
  let busy = ref 0 in
  let issuable = opmap.issuable in
  let recompute_busy k =
    let insts = pipe_free.(k) in
    let free = ref false in
    for i = 0 to Array.length insts - 1 do
      if insts.(i) < tick then free := true
    done;
    if !free then busy := !busy land lnot (1 lsl k)
    else busy := !busy lor (1 lsl k)
  in
  (* lowest-index free instance of kind [k]; only asked while bit k of
     [busy] is clear, so one exists *)
  let free_slot k =
    let insts = pipe_free.(k) in
    let i = ref 0 in
    while insts.(!i) >= tick do incr i done;
    !i
  in
  (* advance the pipe residual epoch to [now] (clamping at free) *)
  let rebase_pipes now =
    if now > !pipe_now then begin
      let d = (now - !pipe_now) * tick in
      let b = ref 0 in
      for k = 0 to n_pipe_kinds - 1 do
        let insts = pipe_free.(k) in
        let free = ref false in
        for i = 0 to Array.length insts - 1 do
          let r = insts.(i) - d in
          let r = if r > 0 then r else 0 in
          insts.(i) <- r;
          if r < tick then free := true
        done;
        if not !free then b := !b lor (1 lsl k)
      done;
      busy := !b;
      pipe_now := now
    end
  in
  (* Ready-list maintenance. The list is doubly linked through physical
     queue slots and kept in dispatch (seq) order, so walking head->tail
     reproduces the dense oldest-first issue scan restricted to entries
     whose operands are available — the same issue decisions in the same
     order. *)
  let ready_insert t s =
    let e = t.queue.(s) in
    let c = t.prog.body.(e.di).cbit in
    t.cls_count.(c) <- t.cls_count.(c) + 1;
    t.present <- t.present lor (1 lsl c);
    let seq = e.seq in
    if t.rtail < 0 then begin
      t.rhead <- s; t.rtail <- s; t.rprev.(s) <- -1; t.rnext.(s) <- -1
    end
    else if t.queue.(t.rtail).seq < seq then begin
      t.rnext.(t.rtail) <- s; t.rprev.(s) <- t.rtail; t.rnext.(s) <- -1;
      t.rtail <- s
    end
    else begin
      let p = ref t.rtail in
      while !p >= 0 && t.queue.(!p).seq > seq do p := t.rprev.(!p) done;
      if !p < 0 then begin
        t.rprev.(t.rhead) <- s; t.rnext.(s) <- t.rhead; t.rprev.(s) <- -1;
        t.rhead <- s
      end
      else begin
        let nx = t.rnext.(!p) in
        t.rnext.(!p) <- s; t.rprev.(s) <- !p; t.rnext.(s) <- nx;
        t.rprev.(nx) <- s
      end
    end
  in
  let ready_remove t s =
    let c = t.prog.body.(t.queue.(s).di).cbit in
    let k = t.cls_count.(c) - 1 in
    t.cls_count.(c) <- k;
    if k = 0 then t.present <- t.present land lnot (1 lsl c);
    let p = t.rprev.(s) and n = t.rnext.(s) in
    if p >= 0 then t.rnext.(p) <- n else t.rhead <- n;
    if n >= 0 then t.rprev.(n) <- p else t.rtail <- p;
    t.rnext.(s) <- -2;
    t.rprev.(s) <- -2
  in
  let rcal_park t s at =
    let idx = at land (calendar_size - 1) in
    t.rcal_next.(s) <- t.rcal.(idx);
    t.rcal.(idx) <- s
  in
  (* The loops are endless: the run ends when the slowest thread has
     dispatched its measured iterations; faster threads simply loop
     more. This keeps every thread in steady state for the whole
     measured window — essential when per-thread programs differ.
     [iter_credit] counts iterations accounted for by period skipping:
     they terminate the run like simulated ones, but never advance
     [iter] itself, whose raw value carries the stream/pattern phases. *)
  let all_done () =
    let d = ref true in
    for i = 0 to nthreads - 1 do
      let t = threads.(i) in
      if t.iter + t.iter_credit < total_iters then d := false
    done;
    !d
  in
  let reset_measurement () =
    Array.iter
      (fun t ->
        let c = t.counters in
        c.instrs <- 0; c.dispatched <- 0; c.fxu <- 0; c.lsu <- 0; c.vsu <- 0;
        c.bru <- 0; c.st <- 0; c.l1 <- 0; c.l2 <- 0; c.l3 <- 0; c.memc <- 0)
      threads;
    Array.fill op_issues 0 (Array.length op_issues) 0;
    Array.fill level_loads 0 4 0;
    switch_events := 0;
    Array.fill transitions 0 (Array.length transitions) 0;
    Cache_sim.reset_stats cache
  in
  (* ---- exact period detection ---------------------------------------- *)
  let has_mem =
    Array.exists
      (fun (p : dprog) ->
        Array.exists
          (fun (d : dinstr) -> d.mem <> 0 && Array.length d.stream > 0)
          p.body)
      progs
  in
  let has_branch =
    Array.exists
      (fun (p : dprog) ->
        Array.exists (fun (d : dinstr) -> Array.length d.pattern > 0) p.body)
      progs
  in
  (* distinct stream/pattern lengths per program: [iter mod m] for each
     is the full phase information [iter] feeds into future behaviour *)
  let iter_mods =
    Array.map
      (fun (p : dprog) ->
        (* accumulate with duplicates and sort+dedup once: body-length
           quadratic [List.mem] scans are measurable at deploy scale *)
        let ms = ref [] in
        Array.iter
          (fun (d : dinstr) ->
            let add n = if n > 1 then ms := n :: !ms in
            add (Array.length d.stream);
            add (Array.length d.pattern))
          p.body;
        Array.of_list (List.sort_uniq compare !ms))
      progs
  in
  let fpbuf = Buffer.create 1024 in
  (* Serialize every piece of machine state that influences future
     evolution, expressed relative to [now] (pipe residuals, completion
     countdowns, seq ages) so that two cycles in the same steady-state
     phase produce the same bytes. The string itself is the hash key:
     for core/pipe/queue state matching means *equality*, not a digest
     collision. The one exception is the cache portion of memory
     programs: the default packed model contributes a rolling 63-bit
     digest (O(1) per boundary instead of O(sets x ways)), so a match
     there is equality up to a ~2^-63 collision — see
     [Cache_sim.add_fingerprint]; [MP_CACHE_MODEL=list] restores full
     serialization. *)
  let fingerprint now =
    Buffer.clear fpbuf;
    let buf = fpbuf in
    (* dispatch round-robin phase *)
    add_int buf (now mod nthreads);
    (* pipe residuals are integer ticks relative to [now] (the caller
       rebases first), so they are exact state by construction *)
    for k = 0 to n_pipe_kinds - 1 do
      let insts = pipe_free.(k) in
      Buffer.add_char buf 'P';
      for i = 0 to Array.length insts - 1 do
        add_int buf insts.(i);
        Buffer.add_char buf ','
      done
    done;
    for ti = 0 to nthreads - 1 do
      let t = threads.(ti) in
      Buffer.add_char buf 'T';
      add_int buf t.pc;
      Buffer.add_char buf ';';
      add_int buf (imax 0 (t.stall_until - now));
      Buffer.add_char buf ';';
      add_int buf t.last_dispatch_op;
      Buffer.add_char buf ';';
      let mods = iter_mods.(ti) in
      for k = 0 to Array.length mods - 1 do
        add_int buf (t.iter mod mods.(k));
        Buffer.add_char buf ','
      done;
      Buffer.add_char buf ';';
      (* in-flight completions as (age, countdown); completed or
         recycled ring slots are behaviourally retired and omitted *)
      let ring = Array.length t.comp_seq in
      for off = 1 to ring do
        let seqv = t.dispatch_seq - off in
        if seqv >= 0 then begin
          let idx = seqv mod ring in
          if t.comp_seq.(idx) = seqv then begin
            let ct = t.comp_time.(idx) in
            if ct = max_int then begin
              add_int buf off;
              Buffer.add_string buf ":u,"
            end
            else if ct > now then begin
              add_int buf off;
              Buffer.add_char buf ':';
              add_int buf (ct - now);
              Buffer.add_char buf ','
            end
          end
        end
      done;
      Buffer.add_char buf ';';
      (* register map: writers still in flight as relative age; all
         retired writers are interchangeable (value ready), but still
         distinct from "never written" *)
      let writers = t.reg_last_writer in
      for r = 0 to Array.length writers - 1 do
        let w = writers.(r) in
        if w < 0 then Buffer.add_char buf 'N'
        else begin
          let idx = w mod ring in
          if t.comp_seq.(idx) = w && t.comp_time.(idx) > now then begin
            add_int buf (t.dispatch_seq - w);
            Buffer.add_char buf ','
          end
          else Buffer.add_char buf 'R'
        end
      done;
      Buffer.add_char buf ';';
      (* queue shape oldest-first: static instr, stream/pattern phase,
         producer ages *)
      for qi = 0 to t.q_len - 1 do
        let e = t.queue.((t.q_head + qi) mod window) in
        if e.live then begin
          add_int buf e.di;
          Buffer.add_char buf '.';
          let d = t.prog.body.(e.di) in
          let slen = Array.length d.stream in
          if slen > 1 then begin
            add_int buf (e.it mod slen);
            Buffer.add_char buf 's'
          end;
          let plen = Array.length d.pattern in
          if plen > 1 then begin
            add_int buf (e.it mod plen);
            Buffer.add_char buf 'p'
          end;
          for k = 0 to e.n_deps - 1 do
            add_int buf (t.dispatch_seq - e.deps.(k));
            Buffer.add_char buf ','
          done;
          Buffer.add_char buf '|'
        end
        else Buffer.add_char buf 'x'
      done;
      Buffer.add_char buf ';';
      if has_branch then begin
        let pred = t.predictor in
        for i = 0 to Array.length pred - 1 do
          Buffer.add_char buf (Char.unsafe_chr (Char.code '0' + pred.(i)))
        done
      end
    done;
    if has_mem then Cache_sim.add_fingerprint cache fpbuf;
    Buffer.contents fpbuf
  in
  let copy_raw (c : raw_counters) =
    { instrs = c.instrs; dispatched = c.dispatched; fxu = c.fxu; lsu = c.lsu;
      vsu = c.vsu; bru = c.bru; st = c.st; l1 = c.l1; l2 = c.l2; l3 = c.l3;
      memc = c.memc }
  in
  let b_table : (string, boundary) Hashtbl.t = Hashtbl.create 64 in
  let period_done = ref (not period_on) in
  let last_b_iter = ref (-1) in
  let skipped = ref 0 in
  let captured_delta = ref None in
  let snapshot now =
    {
      b_cycle = now;
      b_iters = Array.map (fun t -> t.iter) threads;
      b_raw = Array.map (fun t -> copy_raw t.counters) threads;
      b_op_issues = Array.copy op_issues;
      b_level_loads = Array.copy level_loads;
      b_switch = !switch_events;
      b_transitions = Array.copy transitions;
      b_cache = Cache_sim.stats_snapshot cache;
    }
  in
  (* State matched an earlier boundary: every counter delta since that
     boundary is one period's worth, exactly. Credit the remaining whole
     periods (leaving at least one full iteration per thread to run
     densely) and let the tail simulate from the current, unmodified
     machine state. *)
  let apply_period (b : boundary) now =
    period_done := true;
    let d_cycles = now - b.b_cycle in
    if d_cycles > 0 then begin
      let n = ref max_int in
      Array.iteri
        (fun j t ->
          let per = t.iter - b.b_iters.(j) in
          if per <= 0 then n := 0
          else begin
            let rem = total_iters - t.iter - t.iter_credit - 1 in
            let k = if rem <= 0 then 0 else rem / per in
            if k < !n then n := k
          end)
        threads;
      let n = !n in
      if n > 0 then begin
        (* Capture the per-period delta before crediting mutates the
           counters: it is exactly what one period adds to every
           measured quantity, the closed-form step the replay layer
           re-applies. Only a uniform per-thread iteration rate makes
           the step extrapolate across windows (see Replay). *)
        let per0 = threads.(0).iter - b.b_iters.(0) in
        if
          Array.for_all2
            (fun (t : thread_state) bi -> t.iter - bi = per0)
            threads b.b_iters
        then begin
          let i_max =
            Array.fold_left (fun acc t -> max acc t.iter) 0 threads
          in
          captured_delta :=
            Some
              {
                pd_period_iters = per0;
                pd_cycles = d_cycles;
                pd_min_total = i_max + 1;
                pd_counters =
                  Array.mapi
                    (fun j t ->
                      let c = t.counters and s = b.b_raw.(j) in
                      [| c.instrs - s.instrs; c.dispatched - s.dispatched;
                         c.fxu - s.fxu; c.lsu - s.lsu; c.vsu - s.vsu;
                         c.bru - s.bru; c.st - s.st; c.l1 - s.l1;
                         c.l2 - s.l2; c.l3 - s.l3; c.memc - s.memc |])
                    threads;
                pd_op_issues =
                  (let acc = ref [] in
                   for i = Array.length b.b_op_issues - 1 downto 0 do
                     let d = op_issues.(i) - b.b_op_issues.(i) in
                     if d <> 0 then acc := (i, d) :: !acc
                   done;
                   !acc);
                pd_level_loads =
                  Array.init 4 (fun i ->
                      level_loads.(i) - b.b_level_loads.(i));
                pd_switch = !switch_events - b.b_switch;
                pd_transitions =
                  transition_list
                    (Array.mapi (fun i n -> n - b.b_transitions.(i)) transitions);
                pd_prefetches =
                  Cache_sim.prefetches_issued cache
                  - b.b_cache.(Array.length b.b_cache - 1);
              }
        end;
        Array.iteri
          (fun j t ->
            let per = t.iter - b.b_iters.(j) in
            t.iter_credit <- t.iter_credit + (n * per);
            let c = t.counters and s = b.b_raw.(j) in
            c.instrs <- c.instrs + (n * (c.instrs - s.instrs));
            c.dispatched <- c.dispatched + (n * (c.dispatched - s.dispatched));
            c.fxu <- c.fxu + (n * (c.fxu - s.fxu));
            c.lsu <- c.lsu + (n * (c.lsu - s.lsu));
            c.vsu <- c.vsu + (n * (c.vsu - s.vsu));
            c.bru <- c.bru + (n * (c.bru - s.bru));
            c.st <- c.st + (n * (c.st - s.st));
            c.l1 <- c.l1 + (n * (c.l1 - s.l1));
            c.l2 <- c.l2 + (n * (c.l2 - s.l2));
            c.l3 <- c.l3 + (n * (c.l3 - s.l3));
            c.memc <- c.memc + (n * (c.memc - s.memc)))
          threads;
        for i = 0 to Array.length op_issues - 1 do
          op_issues.(i) <-
            op_issues.(i) + (n * (op_issues.(i) - b.b_op_issues.(i)))
        done;
        for i = 0 to 3 do
          level_loads.(i) <-
            level_loads.(i) + (n * (level_loads.(i) - b.b_level_loads.(i)))
        done;
        switch_events := !switch_events + (n * (!switch_events - b.b_switch));
        for i = 0 to Array.length transitions - 1 do
          transitions.(i) <-
            transitions.(i) + (n * (transitions.(i) - b.b_transitions.(i)))
        done;
        Cache_sim.credit cache ~times:n ~since:b.b_cache;
        skipped := !skipped + (n * d_cycles);
        Atomic.incr period_hits_ctr;
        ignore (Atomic.fetch_and_add cycles_skipped_ctr (n * d_cycles))
      end
    end;
    Hashtbl.reset b_table
  in
  let mispredict_penalty = 6 in
  (* Reserve a pipe instance and count the unit event. Like every
     helper the cycle loop calls, it is defined once per run: without
     flambda a [fun], local [let rec] or closure-captured [ref]
     evaluated inside the loop allocates each time it is evaluated, and
     the loop below allocates nothing. *)
  let reserve c (di : dinstr) kind slot occ =
    let insts = pipe_free.(kind) in
    (* residuals are clamped >= 0 at rebase, so reserving from the
       sub-cycle free tick is a plain addition *)
    insts.(slot) <- insts.(slot) + occ;
    recompute_busy kind;
    if !measuring then count_pipe c kind di.upd_ops
  in
  (* Issue one entry whose pipes [busy] shows free: pick every slot
     (the alternate choice included) before any of its reservations,
     as a scan that tested first and reserved second would. *)
  let issue_entry t now (e : pending) (di : dinstr) =
    let c = t.counters in
    let fixed = di.fixed in
    let nfixed = Array.length fixed in
    for f = 0 to nfixed - 1 do
      fixed_slots.(f) <- free_slot (fst fixed.(f))
    done;
    let alt_i = ref (-1) in
    if di.amask <> 0 then begin
      (* the first alternate kind with a free instance *)
      alt_i := 0;
      while !busy land (1 lsl fst di.alt.(!alt_i)) <> 0 do incr alt_i done
    end;
    let alt_slot = if !alt_i >= 0 then free_slot (fst di.alt.(!alt_i)) else -1 in
    for f = 0 to nfixed - 1 do
      let kind, occ = fixed.(f) in
      reserve c di kind fixed_slots.(f) occ
    done;
    if !alt_i >= 0 then begin
      let kind, occ = di.alt.(!alt_i) in
      reserve c di kind alt_slot occ
    end;
    (* latency *)
    let lat =
      if di.mem = 1 && Array.length di.stream > 0 then begin
        let addr = di.stream.(e.it mod Array.length di.stream) in
        let src = Cache_sim.access cache ~addr ~store:false in
        let lid = level_id src in
        if !measuring then begin
          (match lid with
           | 0 -> c.l1 <- c.l1 + 1
           | 1 -> c.l2 <- c.l2 + 1
           | 2 -> c.l3 <- c.l3 + 1
           | _ -> c.memc <- c.memc + 1);
          level_loads.(lid) <- level_loads.(lid) + 1
        end;
        latencies.(lid)
      end
      else if di.mem = 2 && Array.length di.stream > 0 then begin
        let addr = di.stream.(e.it mod Array.length di.stream) in
        ignore (Cache_sim.access cache ~addr ~store:true);
        di.latency
      end
      else di.latency
    in
    (* conditional branch prediction *)
    if Array.length di.pattern > 0 then begin
      let outcome = di.pattern.(e.it mod Array.length di.pattern) in
      let p = t.predictor.(e.di) in
      let predicted = p >= 2 in
      t.predictor.(e.di) <- (if outcome then imin 3 (p + 1) else imax 0 (p - 1));
      if predicted <> outcome then
        t.stall_until <- imax t.stall_until (now + mispredict_penalty)
    end;
    let completion = now + imax 1 lat in
    let ring = Array.length t.comp_seq in
    let idx = e.seq mod ring in
    if t.comp_seq.(idx) = e.seq then begin
      t.comp_time.(idx) <- completion;
      (* wake consumers that were waiting on this producer's issue: its
         completion time is now known *)
      let w = ref t.whead.(idx) in
      t.whead.(idx) <- -1;
      while !w >= 0 do
        let nw = t.wlink.(!w) in
        t.wlink.(!w) <- -1;
        let ws = !w / 4 in
        t.n_wait.(ws) <- t.n_wait.(ws) - 1;
        if completion > t.ready_at.(ws) then t.ready_at.(ws) <- completion;
        if t.n_wait.(ws) = 0 then rcal_park t ws t.ready_at.(ws);
        w := nw
      done
    end;
    let cslot = completion land (calendar_size - 1) in
    t.comp_cal.(cslot) <- t.comp_cal.(cslot) + 1;
    if !measuring then begin
      c.instrs <- c.instrs + 1;
      op_issues.(di.op_id) <- op_issues.(di.op_id) + 1
    end
  in
  while not (all_done ()) do
    let now = !cycle in
    rebase_pipes now;
    (* period detection: fingerprint at iteration boundaries of thread 0
       during the measured window until a repeat. State is integer
       everywhere, so every bounded kernel's steady state repeats
       bit-for-bit eventually; a kernel only stays dense when its period
       exceeds the measured window (e.g. address streams longer than the
       window), in which case the boundary count — and the snapshots
       held here — is bounded by the window itself. *)
    if !measuring && (not !period_done) && threads.(0).iter > !last_b_iter
    then begin
      last_b_iter := threads.(0).iter;
      let fp = fingerprint now in
      match Hashtbl.find_opt b_table fp with
      | Some b -> apply_period b now
      | None -> Hashtbl.add b_table fp (snapshot now)
    end;
    (* retire completions from the calendar, then wake entries whose
       operand-arrival cycle is now *)
    let cal = now land (calendar_size - 1) in
    for ti = 0 to nthreads - 1 do
      let t = threads.(ti) in
      t.in_flight <- t.in_flight - t.comp_cal.(cal);
      t.comp_cal.(cal) <- 0;
      let s = ref t.rcal.(cal) in
      t.rcal.(cal) <- -1;
      while !s >= 0 do
        let nx = t.rcal_next.(!s) in
        t.rcal_next.(!s) <- -1;
        if t.ready_at.(!s) > now then
          (* calendar aliasing guard; unreachable while latencies stay
             below the calendar span, but cheap to keep honest *)
          rcal_park t !s t.ready_at.(!s)
        else ready_insert t !s;
        s := nx
      done
    done;
    (* dispatch: shared width, round-robin priority *)
    let progressed = ref false in
    let budget = ref uarch.Uarch_def.dispatch_width in
    for k = 0 to nthreads - 1 do
      let t = threads.((now + k) mod nthreads) in
      let continue_ = ref true in
      while
        !continue_ && !budget > 0
        && t.stall_until <= now && t.in_flight < window && t.q_len < window
      do
        let body_len = Array.length t.prog.body in
        let sidx = (t.q_head + t.q_len) mod window in
        let slot = t.queue.(sidx) in
        slot.di <- t.pc;
        slot.it <- t.iter;
        slot.seq <- t.dispatch_seq;
        slot.live <- true;
        (* capture producers now: each source depends on the youngest
           writer dispatched so far (update-form bases therefore read
           the value preceding their own write, as on hardware) *)
        let body_i = t.prog.body.(t.pc) in
        slot.n_deps <- 0;
        let srcs = body_i.srcs in
        for si = 0 to Array.length srcs - 1 do
          let producer = t.reg_last_writer.(srcs.(si)) in
          if producer >= 0 && slot.n_deps < Array.length slot.deps then begin
            slot.deps.(slot.n_deps) <- producer;
            slot.n_deps <- slot.n_deps + 1
          end
        done;
        let ring = Array.length t.comp_seq in
        let dsts = body_i.dests in
        for d = 0 to Array.length dsts - 1 do
          t.reg_last_writer.(dsts.(d)) <- t.dispatch_seq
        done;
        t.comp_seq.(t.dispatch_seq mod ring) <- t.dispatch_seq;
        t.comp_time.(t.dispatch_seq mod ring) <- max_int;
        t.dispatch_seq <- t.dispatch_seq + 1;
        t.q_len <- t.q_len + 1;
        t.in_flight <- t.in_flight + 1;
        (* classify each captured producer: not yet issued -> chain a
           waiter on its comp-ring slot; issued but incomplete -> its
           completion bounds our wakeup; completed or recycled ->
           satisfied. An entry with nothing to wait for goes straight
           to the ready list (it is the youngest seq, so at the tail),
           visible to this same cycle's issue scan exactly like the
           dense scan saw it. *)
        t.n_wait.(sidx) <- 0;
        t.ready_at.(sidx) <- 0;
        for k = 0 to slot.n_deps - 1 do
          let d = slot.deps.(k) in
          let idx = d mod ring in
          if t.comp_seq.(idx) = d then begin
            let ct = t.comp_time.(idx) in
            if ct = max_int then begin
              let node = (sidx * 4) + k in
              t.wlink.(node) <- t.whead.(idx);
              t.whead.(idx) <- node;
              t.n_wait.(sidx) <- t.n_wait.(sidx) + 1
            end
            else if ct > now && ct > t.ready_at.(sidx) then
              t.ready_at.(sidx) <- ct
          end
        done;
        if t.n_wait.(sidx) = 0 then begin
          if t.ready_at.(sidx) <= now then ready_insert t sidx
          else rcal_park t sidx t.ready_at.(sidx)
        end;
        progressed := true;
        let op = t.lop.(t.pc) in
        if !measuring then begin
          t.counters.dispatched <- t.counters.dispatched + 1;
          (* opcode transition on the shared dispatch bus: the order-
             dependent switching activity the ground truth charges for *)
          if op <> t.last_dispatch_op && t.last_dispatch_op >= 0 then begin
            incr switch_events;
            let key = (t.last_dispatch_op * trans_stride) + op in
            transitions.(key) <- transitions.(key) + 1
          end
        end;
        t.last_dispatch_op <- op;
        decr budget;
        t.pc <- t.pc + 1;
        if t.pc = body_len then begin
          t.pc <- 0;
          t.iter <- t.iter + 1;
          if t.iter + t.iter_credit >= total_iters then continue_ := false
        end
      done
    done;
    (* issue: walk each thread's ready list oldest-first, rotating the
       thread priority each cycle (SMT issue arbitration). The list
       holds exactly the live entries whose operands are available, in
       dispatch order — the same candidates the dense scan found, minus
       the per-entry dependency rescans. Nothing becomes ready
       mid-cycle (completions are always at least one cycle out), so
       the walk sees a stable frontier plus same-cycle dispatches
       appended at the tail, exactly as the dense scan did.

       An entry that cannot issue writes nothing, so the walk may skip
       it on the [busy] mask alone (some fixed kind busy, or every
       alternate kind busy). The walk stops once no pipe class on the
       thread's ready list can issue under [busy]: bits of [busy] are
       only ever set during the issue phase, so every entry it would
       still have examined would have been skipped. *)
    for tk = 0 to nthreads - 1 do
      let ti = (now + tk) mod nthreads in
      let t = threads.(ti) in
      if t.starve_since < 0 then t.starve_since <- now;
      let cursor = ref t.rhead in
      while !cursor >= 0 && t.present land issuable.(!busy) <> 0 do
        let s = !cursor in
        let next = t.rnext.(s) in
        let e = t.queue.(s) in
        let di = t.prog.body.(e.di) in
        if can_issue ~fmask:di.fmask ~amask:di.amask !busy then begin
          issue_entry t now e di;
          t.starve_since <- now;
          progressed := true;
          ready_remove t s;
          e.live <- false;
        end;
        cursor := next
      done;
      (* Issue priority rotates with the cycle, so a pipe kind that
         frees on a fixed stride can land on the same thread forever
         (two threads and a 2-cycle occupancy). A thread holding ready
         work it has not issued for a calendar span is starved: fail
         rather than spin. *)
      if t.rhead < 0 then t.starve_since <- -1
      else if now - t.starve_since >= calendar_size then
        failwith
          (Printf.sprintf
             "Core_sim: thread %d starved: ready work but no issue from \
              cycle %d to cycle %d"
             ti t.starve_since now);
      (* compact the head of the ring *)
      while t.q_len > 0 && not t.queue.(t.q_head).live do
        t.q_head <- (t.q_head + 1) mod window;
        t.q_len <- t.q_len - 1
      done
    done;
    (* start the measured window once every thread passed warmup *)
    if not !measuring then begin
      let warm = ref true in
      for ti = 0 to nthreads - 1 do
        if threads.(ti).iter < warmup then warm := false
      done;
      if !warm then begin
        measuring := true;
        start_cycle := now + 1;
        reset_measurement ()
      end
    end;
    incr cycle;
    (* Fast-forward across dead cycles. Tier A (blocked): every thread
       is dispatch-blocked and has an empty ready list, so no cycle can
       do anything until a completion retires, a wakeup fires or a
       stall expires — pipes are irrelevant because nothing is ready to
       issue. This fires even on cycles that did progress, which is
       where latency-bound kernels spend most of their time. Tier B
       (idle): nothing progressed at all; the next event may also be a
       pipe instance freeing up. Skipped cycles have empty completion
       and wakeup slots, and the blocking conditions persist until one
       of those events, so skipping is exact. *)
    if not (all_done ()) then begin
      let cyc = !cycle in
      let blocked = ref true in
      for ti = 0 to nthreads - 1 do
        let t = threads.(ti) in
        if
          t.rhead >= 0
          || not
               (t.stall_until > cyc || t.in_flight >= window
               || t.q_len >= window)
        then blocked := false
      done;
      if !blocked || not !progressed then begin
        let horizon = ref (cyc + calendar_size - 2) in
        if not !blocked then
          for k = 0 to n_pipe_kinds - 1 do
            let insts = pipe_free.(k) in
            for i = 0 to Array.length insts - 1 do
              (* an instance is free as soon as its residual drops below
                 one full cycle ([free_slot] tests < tick), so it frees
                 after floor(r/tick) more cycles — ceiling here would
                 overshoot fractional residuals by one cycle and skip
                 cycles where issue was possible *)
              let c = !pipe_now + (insts.(i) / tick) in
              if c >= cyc && c < !horizon then horizon := c
            done
          done;
        let inflight_total = ref 0 in
        for ti = 0 to nthreads - 1 do
          let t = threads.(ti) in
          if t.stall_until >= cyc && t.stall_until < !horizon then
            horizon := t.stall_until;
          inflight_total := !inflight_total + t.in_flight
        done;
        if !inflight_total = 0 && !horizon > cyc + calendar_size - 4 then
          failwith "Core_sim: deadlock (no in-flight work and no events)";
        (* advance while every thread's completion and wakeup slots for
           the cycle are empty *)
        let live = ref false in
        while (not !live) && !cycle < !horizon do
          let idx = !cycle land (calendar_size - 1) in
          for ti = 0 to nthreads - 1 do
            let t = threads.(ti) in
            if t.comp_cal.(idx) <> 0 || t.rcal.(idx) >= 0 then live := true
          done;
          if not !live then incr cycle
        done
      end
    end
  done;
  (* Every cycle before [!cycle] was either simulated, which clears its
     calendar entries, or skipped because it had none; what is still
     parked lies at most one completion latency ahead. *)
  let max_latency =
    Array.fold_left
      (fun acc (p : dprog) ->
        Array.fold_left (fun acc (d : dinstr) -> imax acc d.latency) acc p.body)
      (Array.fold_left imax 1 latencies) progs
  in
  for ti = 0 to nthreads - 1 do
    let sl = arena.slots.(ti) in
    sl.dirty_from <- !cycle;
    sl.dirty_to <- !cycle + max_latency
  done;
  give_back arena;
  let measured_cycles = max 1 (!cycle - !start_cycle + !skipped) in
  let counters_of t =
    let c = t.counters in
    {
      Measurement.cycles = float_of_int measured_cycles;
      instrs = float_of_int c.instrs;
      dispatched = float_of_int c.dispatched;
      fxu = float_of_int c.fxu;
      lsu = float_of_int c.lsu;
      vsu = float_of_int c.vsu;
      bru = float_of_int c.bru;
      st = float_of_int c.st;
      l1 = float_of_int c.l1;
      l2 = float_of_int c.l2;
      l3 = float_of_int c.l3;
      mem = float_of_int c.memc;
    }
  in
  let daf =
    Array.fold_left (fun acc (p : dprog) -> acc +. p.daf) 0.0 progs
    /. float_of_int nthreads
  in
  let activity = {
    measured_cycles;
    threads = Array.map counters_of threads;
    op_issues;
    level_loads;
    switch_events = !switch_events;
    transitions =
      (* ascending (prev, next) global id order: deterministic regardless
         of the matrix stride; Power_sim re-sorts by opcode *name* before
         summing so the energy is also independent of how this
         machine's intern table grew *)
      transition_list transitions;
    daf;
    prefetches = Cache_sim.prefetches_issued cache;
  }
  in
  (activity, !captured_delta)

let run ~uarch ~opmap ?mem_latency ?warmup ?measure ?period progs =
  fst (run_ex ~uarch ~opmap ?mem_latency ?warmup ?measure ?period progs)
