open Mp_uarch
open Mp_codegen

(* ----- opcode interning ------------------------------------------------- *)

type opmap = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable count : int;
  lock : Mutex.t;
      (* deploys may run on pool domains; the intern table is the only
         mutable state they share, so every access takes the lock.
         Deterministic id assignment is the caller's job: Machine
         pre-interns every opcode in job order before fanning out. *)
}

let opmap_create () =
  { ids = Hashtbl.create 64; names = Array.make 64 ""; count = 0;
    lock = Mutex.create () }

let opmap_size m = m.count

let intern m name =
  Mutex.lock m.lock;
  let id =
    match Hashtbl.find_opt m.ids name with
    | Some id -> id
    | None ->
      let id = m.count in
      Hashtbl.add m.ids name id;
      if id >= Array.length m.names then begin
        let bigger = Array.make (2 * Array.length m.names) "" in
        Array.blit m.names 0 bigger 0 (Array.length m.names);
        m.names <- bigger
      end;
      m.names.(id) <- name;
      m.count <- id + 1;
      id
  in
  Mutex.unlock m.lock;
  id

let opmap_name m id =
  if id < 0 || id >= m.count then invalid_arg "Core_sim.opmap_name";
  m.names.(id)

(* ----- deployed programs ------------------------------------------------ *)

let n_pipe_kinds = 6

let pipe_index = function
  | Pipe.Fxu -> 0
  | Pipe.Lsu -> 1
  | Pipe.Vsu -> 2
  | Pipe.Bru -> 3
  | Pipe.Store_port -> 4
  | Pipe.Update_port -> 5

type dinstr = {
  op_id : int;
  fixed : (int * int) array;    (* (pipe kind, occupancy in uarch ticks) *)
  alt : (int * int) array;
  fmask : int;                  (* bit k set iff [fixed] uses pipe kind k *)
  amask : int;                  (* the same over [alt] *)
  latency : int;                (* base latency; memory ops: per access *)
  dests : int array;            (* dense register ids *)
  srcs : int array;
  mem : int;                    (* 0 none / 1 load / 2 store *)
  upd_ops : int;                (* fixup micro-ops accounted as FXU events *)
  stream : int array;
  pattern : bool array;         (* conditional branches only *)
}

type dprog = {
  body : dinstr array;
  n_regs : int;
  daf : float;
}

let kinds_mask uses = Array.fold_left (fun m (k, _) -> m lor (1 lsl k)) 0 uses

let deploy ~uarch ~opmap ~streams (p : Ir.t) =
  let reg_ids = Hashtbl.create 64 in
  let n_regs = ref 0 in
  let reg_id r =
    match Hashtbl.find_opt reg_ids r with
    | Some i -> i
    | None ->
      let i = !n_regs in
      Hashtbl.add reg_ids r i;
      incr n_regs;
      i
  in
  let of_instr (i : Ir.instr) =
    let op = i.Ir.op in
    let res = uarch.Uarch_def.resources op in
    (* occupancies become exact integer ticks over the uarch common
       denominator; [occ_ticks] raises if the definition's [occ_den]
       does not cover some occupancy, so a broken definition fails at
       deploy rather than silently losing precision *)
    let conv u =
      (pipe_index u.Uarch_def.pipe, Uarch_def.occ_ticks uarch u.Uarch_def.occupancy)
    in
    let mem =
      match op.Mp_isa.Instruction.mem with
      | Mp_isa.Instruction.No_mem -> 0
      | Mp_isa.Instruction.Load -> 1
      | Mp_isa.Instruction.Store -> 2
    in
    let fixed = Array.of_list (List.map conv res.Uarch_def.fixed) in
    let alt = Array.of_list (List.map conv res.Uarch_def.alt) in
    {
      op_id = intern opmap op.Mp_isa.Instruction.mnemonic;
      fixed;
      alt;
      fmask = kinds_mask fixed;
      amask = kinds_mask alt;
      latency = res.Uarch_def.latency;
      dests = Array.of_list (List.map reg_id i.Ir.dests);
      srcs = Array.of_list (List.map reg_id i.Ir.srcs);
      mem;
      upd_ops =
        (if op.Mp_isa.Instruction.update then 1 else 0)
        + (if op.Mp_isa.Instruction.algebraic then 1 else 0);
      stream = (if mem = 0 || op.Mp_isa.Instruction.prefetch then [||] else streams i.Ir.index);
      pattern =
        (match i.Ir.taken_pattern with Some pat -> pat | None -> [||]);
    }
  in
  let payload = Array.map of_instr p.Ir.body in
  let bdnz =
    {
      op_id = intern opmap "bdnz";
      fixed = [| (pipe_index Pipe.Bru, uarch.Uarch_def.occ_den) |];
      alt = [||];
      fmask = 1 lsl pipe_index Pipe.Bru;
      amask = 0;
      latency = 1;
      dests = [||];
      srcs = [||];
      mem = 0;
      upd_ops = 0;
      stream = [||];
      pattern = [||];
    }
  in
  { body = Array.append payload [| bdnz |];
    n_regs = max 1 !n_regs;
    daf = Ir.data_activity_factor p }

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

(* Read once, at module initialisation: pool domains consult it
   concurrently, and a lazy value forced by two domains at once raises
   [CamlinternalLazy.Undefined] in OCaml 5. *)
let env_period =
  match Sys.getenv_opt "MP_PERIOD" with
  | Some v ->
    not
      (List.mem
         (String.lowercase_ascii (String.trim v))
         [ "off"; "0"; "false"; "no" ])
  | None -> true

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

let run_ex ~uarch ~opmap ?mem_latency ?(warmup = 1) ?(measure = 2) ?period
    progs =
  let nthreads = Array.length progs in
  if nthreads = 0 then invalid_arg "Core_sim.run: no threads";
  let mem_lat =
    match mem_latency with Some l -> l | None -> uarch.Uarch_def.mem_latency
  in
  let window = uarch.Uarch_def.window in
  let total_iters = warmup + measure in
  (* Period skipping pays for its fingerprints only when there are
     enough measured iterations to elide; short windows run dense. *)
  let period_on =
    (match period with Some b -> b | None -> env_period)
    && measure >= 4
  in
  let cache = Cache_sim.create uarch in
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
    Array.map
      (fun prog ->
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
          comp_cal = Array.make calendar_size 0;
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
          rcal = Array.make calendar_size (-1);
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
    let seq = t.queue.(s).seq in
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
    Buffer.add_string buf (string_of_int (now mod nthreads));
    (* pipe residuals are integer ticks relative to [now] (the caller
       rebases first), so they are exact state by construction *)
    Array.iter
      (fun insts ->
        Buffer.add_char buf 'P';
        Array.iter
          (fun r ->
            Buffer.add_string buf (string_of_int r);
            Buffer.add_char buf ',')
          insts)
      pipe_free;
    Array.iteri
      (fun ti t ->
        Buffer.add_char buf 'T';
        Buffer.add_string buf (string_of_int t.pc);
        Buffer.add_char buf ';';
        Buffer.add_string buf (string_of_int (max 0 (t.stall_until - now)));
        Buffer.add_char buf ';';
        Buffer.add_string buf (string_of_int t.last_dispatch_op);
        Buffer.add_char buf ';';
        Array.iter
          (fun m ->
            Buffer.add_string buf (string_of_int (t.iter mod m));
            Buffer.add_char buf ',')
          iter_mods.(ti);
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
                Buffer.add_string buf (string_of_int off);
                Buffer.add_string buf ":u,"
              end
              else if ct > now then begin
                Buffer.add_string buf (string_of_int off);
                Buffer.add_char buf ':';
                Buffer.add_string buf (string_of_int (ct - now));
                Buffer.add_char buf ','
              end
            end
          end
        done;
        Buffer.add_char buf ';';
        (* register map: writers still in flight as relative age; all
           retired writers are interchangeable (value ready), but still
           distinct from "never written" *)
        Array.iter
          (fun w ->
            if w < 0 then Buffer.add_char buf 'N'
            else begin
              let idx = w mod ring in
              if t.comp_seq.(idx) = w && t.comp_time.(idx) > now then begin
                Buffer.add_string buf (string_of_int (t.dispatch_seq - w));
                Buffer.add_char buf ','
              end
              else Buffer.add_char buf 'R'
            end)
          t.reg_last_writer;
        Buffer.add_char buf ';';
        (* queue shape oldest-first: static instr, stream/pattern phase,
           producer ages *)
        for qi = 0 to t.q_len - 1 do
          let e = t.queue.((t.q_head + qi) mod window) in
          if e.live then begin
            Buffer.add_string buf (string_of_int e.di);
            Buffer.add_char buf '.';
            let d = t.prog.body.(e.di) in
            let slen = Array.length d.stream in
            if slen > 1 then begin
              Buffer.add_string buf (string_of_int (e.it mod slen));
              Buffer.add_char buf 's'
            end;
            let plen = Array.length d.pattern in
            if plen > 1 then begin
              Buffer.add_string buf (string_of_int (e.it mod plen));
              Buffer.add_char buf 'p'
            end;
            for k = 0 to e.n_deps - 1 do
              Buffer.add_string buf (string_of_int (t.dispatch_seq - e.deps.(k)));
              Buffer.add_char buf ','
            done;
            Buffer.add_char buf '|'
          end
          else Buffer.add_char buf 'x'
        done;
        Buffer.add_char buf ';';
        if has_branch then
          Array.iter
            (fun p -> Buffer.add_char buf (Char.chr (Char.code '0' + p)))
            t.predictor)
      threads;
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
       alternate kind busy). *)
    for tk = 0 to nthreads - 1 do
      let ti = (now + tk) mod nthreads in
      let t = threads.(ti) in
      if t.starve_since < 0 then t.starve_since <- now;
      let cursor = ref t.rhead in
      while !cursor >= 0 do
        let s = !cursor in
        let next = t.rnext.(s) in
        let e = t.queue.(s) in
        let di = t.prog.body.(e.di) in
        let b = !busy in
        if di.fmask land b = 0 && (di.amask = 0 || di.amask land lnot b <> 0)
        then begin
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
