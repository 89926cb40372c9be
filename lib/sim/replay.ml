(* Steady-state replay: pay a program's warmup-to-steady-state
   simulation once, then answer later measurements of the same
   structural program with a closed-form counter step.

   The period detector in Core_sim proves — by full-state fingerprint
   equality, not a digest — that the machine state repeats at an
   iteration boundary. A run that detected a period therefore factors,
   exactly, as head + k * period + tail, where the per-period counter
   delta is an integer vector. Store the run's final activity plus
   that delta, and the activity of any other admissible window is
   activity + k * delta, bit-for-bit (see the validity analysis on
   [find]). Runs that never detect a period still store their final
   activity, which replays exactly at the recorded window.

   Records are keyed on everything the activity depends on:

   - the uarch fingerprint (geometry, latencies, occupancies — and the
     base memory latency, so a bandwidth-inflated re-run keys apart
     via the explicit [mem_latency] component),
   - the SMT mode and the warmup length,
   - each per-thread program's name-free [Ir.body_hash] (opcodes,
     operands, immediates, branch patterns, register initialisation,
     memory distribution),
   - for programs that consume per-run randomness (memory address
     streams), a salt folding the RNG inputs (effective seed, run
     name, cores, smt) — pure compute programs omit it, so GA
     re-evaluations and renamed duplicates share records across names,
     seeds and core counts.

   The measured window is NOT part of the key: one record serves every
   admissible window through the period step.

   Counters are stored by opcode NAME, not intern id: ids reflect one
   machine's interning history, names are canonical. Power_sim sums
   energies in name order for exactly this reason, so reifying a
   record against any machine's opmap reproduces the measurement
   bit-for-bit. *)

open Mp_codegen

(* ----- stored data (pure, marshal-safe) ---------------------------------- *)

(* A window's opcode activity, each distinct opcode name stored once:
   [names] sorted (name order is rank order, {!Core_sim.name_ranks}),
   [issues] aligned with it (0 for a name with no issue entry), and
   [pairs] the transitions as flat (prev, next, count) triples of
   indices into [names], ascending. *)
type ops = { names : string array; issues : int array; pairs : int array }

type snapshot = {
  s_measure : int;
  s_cycles : int;
  s_counters : int array array; (* per thread: raw_counters in order *)
  s_ops : ops;
  s_level_loads : int array;
  s_switch : int;
  s_prefetches : int;
}

type period = {
  p_iters : int;
  p_cycles : int;
  p_min_total : int;
  p_counters : int array array;
  p_ops : ops;
  p_level_loads : int array;
  p_switch : int;
  p_prefetches : int;
}

type record = { bases : snapshot list; period : period option }

(* Bound the per-key base list: distinct windows of one program are
   few in practice (default and bootstrap's 2x default), and any base
   extrapolates to every admissible window once a period is known. *)
let max_bases = 8

(* ----- the table --------------------------------------------------------- *)

type t = {
  table : (string, record) Hashtbl.t;
  lock : Mutex.t;
  disk : Measurement_cache.disk option;
}

let hits_ctr = Atomic.make 0
let misses_ctr = Atomic.make 0

let hits () = Atomic.get hits_ctr
let misses () = Atomic.get misses_ctr

(* Same gate and directory as the measurement cache ([MP_CACHE],
   [MP_CACHE_DIR]), one level down — records are written through the
   cache's own entry functions, so a build's records are pruned and
   GC'd with its measurements. *)
let env_disk_dir () =
  Option.map
    (fun d -> Measurement_cache.replay_dir d.Measurement_cache.dir)
    (Measurement_cache.env_disk ())

let create ?disk_dir () =
  {
    table = Hashtbl.create 256;
    lock = Mutex.create ();
    disk =
      Option.map
        (fun dir ->
          { Measurement_cache.dir; namespace = Measurement_cache.namespace () })
        disk_dir;
  }

let length t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

(* One process-wide table per replay directory, plus one with the disk
   off, chosen by the environment at each call: a machine's records
   land under the cache root its measurements use, even after the
   process has moved [MP_CACHE_DIR]. *)
let global_tables : (string option, t) Hashtbl.t = Hashtbl.create 4
let global_lock = Mutex.create ()

(* [Mutex.protect]: a rejected MP_CACHE raises inside the critical
   section *)
let global () =
  Mutex.protect global_lock (fun () ->
      let dir = env_disk_dir () in
      match Hashtbl.find_opt global_tables dir with
      | Some r -> r
      | None ->
        let r = create ?disk_dir:dir () in
        Hashtbl.add global_tables dir r;
        r)

(* ----- keys -------------------------------------------------------------- *)

let key ~uarch ~smt ~warmup ~mem_latency ?salt (per_thread : Ir.t array) =
  let open Mp_util.Fnv in
  let h = string seed uarch in
  let h = int h smt in
  let h = int h warmup in
  let h = int h mem_latency in
  let h =
    match salt with None -> byte h 0 | Some s -> string (byte h 1) s
  in
  let h = int h (Array.length per_thread) in
  let h =
    Array.fold_left (fun h (p : Ir.t) -> int64 h p.Ir.body_hash) h per_thread
  in
  to_hex (finish h)

(* ----- activity <-> record conversion ------------------------------------ *)

let counters_to_ints (c : Measurement.counters) =
  let open Measurement in
  Array.map int_of_float
    [| c.instrs; c.dispatched; c.fxu; c.lsu; c.vsu; c.bru; c.st;
       c.l1; c.l2; c.l3; c.mem |]

(* [issued] (id, non-zero count) and [trans] (prev id, next id, count)
   as an [ops]: the L distinct ids sorted by rank once, then every
   entry mapped to its index. *)
let ops_of ~opmap issued trans =
  let rank = Core_sim.name_ranks opmap in
  let slot = Array.make (Array.length rank) (-1) in
  let ids = ref [] in
  let note id =
    if slot.(id) < 0 then begin
      slot.(id) <- 0;
      ids := id :: !ids
    end
  in
  List.iter (fun (id, _) -> note id) issued;
  List.iter (fun (a, b, _) -> note a; note b) trans;
  let ids = Array.of_list !ids in
  Array.sort (fun a b -> Int.compare rank.(a) rank.(b)) ids;
  Array.iteri (fun i id -> slot.(id) <- i) ids;
  let l = Array.length ids in
  let issues = Array.make l 0 in
  List.iter (fun (id, c) -> issues.(slot.(id)) <- c) issued;
  (* pairs in (prev, next) index order: placed by prev index (a
     counting sort over the list), then each prev index's run read back
     in next index order through a table of the l next indices (a pair
     occurs once per list) *)
  let ends = Array.make (l + 1) 0 in
  List.iter (fun (a, _, _) -> ends.(slot.(a) + 1) <- ends.(slot.(a) + 1) + 1) trans;
  for a = 1 to l do
    ends.(a) <- ends.(a) + ends.(a - 1)
  done;
  let pairs = Array.make (3 * ends.(l)) 0 in
  List.iter
    (fun (a, b, c) ->
      let j = ends.(slot.(a)) in
      ends.(slot.(a)) <- j + 1;
      pairs.(3 * j) <- slot.(a);
      pairs.((3 * j) + 1) <- slot.(b);
      pairs.((3 * j) + 2) <- c)
    trans;
  let seen = Array.make l (-1) and count = Array.make l 0 in
  for a = 0 to l - 1 do
    let lo = if a = 0 then 0 else ends.(a - 1) and hi = ends.(a) in
    if hi - lo > 1 then begin
      for j = lo to hi - 1 do
        let b = pairs.((3 * j) + 1) in
        seen.(b) <- a;
        count.(b) <- pairs.((3 * j) + 2)
      done;
      let w = ref lo in
      for b = 0 to l - 1 do
        if seen.(b) = a then begin
          pairs.((3 * !w) + 1) <- b;
          pairs.((3 * !w) + 2) <- count.(b);
          incr w
        end
      done
    end
  done;
  { names = Array.map (Core_sim.opmap_name opmap) ids; issues; pairs }

let snapshot_of_activity ~opmap ~measure (a : Core_sim.activity) =
  let issued = ref [] in
  for id = Array.length a.Core_sim.op_issues - 1 downto 0 do
    if a.Core_sim.op_issues.(id) <> 0 then
      issued := (id, a.Core_sim.op_issues.(id)) :: !issued
  done;
  {
    s_measure = measure;
    s_cycles = a.Core_sim.measured_cycles;
    s_counters = Array.map counters_to_ints a.Core_sim.threads;
    s_ops = ops_of ~opmap !issued a.Core_sim.transitions;
    s_level_loads = Array.copy a.Core_sim.level_loads;
    s_switch = a.Core_sim.switch_events;
    s_prefetches = a.Core_sim.prefetches;
  }

let period_of_delta ~opmap (pd : Core_sim.period_delta) =
  {
    p_iters = pd.Core_sim.pd_period_iters;
    p_cycles = pd.Core_sim.pd_cycles;
    p_min_total = pd.Core_sim.pd_min_total;
    p_counters = pd.Core_sim.pd_counters;
    p_ops = ops_of ~opmap pd.Core_sim.pd_op_issues pd.Core_sim.pd_transitions;
    p_level_loads = pd.Core_sim.pd_level_loads;
    p_switch = pd.Core_sim.pd_switch;
    p_prefetches = pd.Core_sim.pd_prefetches;
  }

let no_ops = { names = [||]; issues = [||]; pairs = [||] }

(* [base + k * step] against [opmap]: op issues over every name with an
   issue entry in either (zeros kept), the array spanning the largest
   of their ids as a dense run's spans every interned one; transitions
   with zero sums dropped. Each name is interned once (a step naming
   the base's opcodes shares its ids) and every pair index maps through
   an int array. Both pair lists are in name order, which is rank
   order, so one linear merge on ranks sums them and lists the
   transitions in name order ({!Power_sim} orders them itself). *)
let reify_ops ~opmap k (base : ops) (step : ops) =
  let bid = Array.map (Core_sim.intern opmap) base.names in
  let sid =
    if step.names = base.names then bid
    else Array.map (Core_sim.intern opmap) step.names
  in
  let top = ref 0 in
  for i = 0 to Array.length bid - 1 do
    if base.issues.(i) <> 0 then top := max !top bid.(i)
  done;
  for i = 0 to Array.length sid - 1 do
    if step.issues.(i) <> 0 then top := max !top sid.(i)
  done;
  let op_issues = Array.make (!top + 1) 0 in
  for i = 0 to Array.length bid - 1 do
    let c = base.issues.(i) in
    if c <> 0 then op_issues.(bid.(i)) <- op_issues.(bid.(i)) + c
  done;
  for i = 0 to Array.length sid - 1 do
    let c = step.issues.(i) in
    if c <> 0 then op_issues.(sid.(i)) <- op_issues.(sid.(i)) + (k * c)
  done;
  let rank = Core_sim.name_ranks opmap in
  let r = Array.length rank in
  let key ids pairs j =
    (rank.(ids.(pairs.(3 * j))) * r) + rank.(ids.(pairs.((3 * j) + 1)))
  in
  (* from the last pair down, prepending: ascending order; k = 0 adds
     nothing *)
  let transitions = ref [] in
  let emit ids pairs j c =
    if c <> 0 then
      transitions :=
        (ids.(pairs.(3 * j)), ids.(pairs.((3 * j) + 1)), c) :: !transitions
  in
  let i = ref ((Array.length base.pairs / 3) - 1) in
  let j = ref (if k = 0 then -1 else (Array.length step.pairs / 3) - 1) in
  while !i >= 0 || !j >= 0 do
    let o =
      if !i < 0 then -1
      else if !j < 0 then 1
      else compare (key bid base.pairs !i) (key sid step.pairs !j)
    in
    if o = 0 then begin
      emit bid base.pairs !i
        (base.pairs.((3 * !i) + 2) + (k * step.pairs.((3 * !j) + 2)));
      decr i;
      decr j
    end
    else if o > 0 then begin
      emit bid base.pairs !i base.pairs.((3 * !i) + 2);
      decr i
    end
    else begin
      emit sid step.pairs !j (k * step.pairs.((3 * !j) + 2));
      decr j
    end
  done;
  (op_issues, !transitions)

(* [base + k * period], reified against [opmap]. [k] may be negative
   (extrapolating down to a shorter window); every resulting counter
   equals the corresponding dense run's and is therefore >= 0. *)
let reify ~opmap ~daf (b : snapshot) k (p : period option) =
  let step fs fp = match p with None -> fs | Some p -> fs + (k * fp p) in
  let cycles =
    step b.s_cycles (fun p -> p.p_cycles)
  in
  let cyc_f = float_of_int cycles in
  let threads =
    Array.mapi
      (fun t bc ->
        let v i =
          float_of_int
            (match p with
             | None -> bc.(i)
             | Some p -> bc.(i) + (k * p.p_counters.(t).(i)))
        in
        {
          Measurement.cycles = cyc_f;
          instrs = v 0;
          dispatched = v 1;
          fxu = v 2;
          lsu = v 3;
          vsu = v 4;
          bru = v 5;
          st = v 6;
          l1 = v 7;
          l2 = v 8;
          l3 = v 9;
          mem = v 10;
        })
      b.s_counters
  in
  let op_issues, transitions =
    reify_ops ~opmap k b.s_ops
      (match p with Some p -> p.p_ops | None -> no_ops)
  in
  let level_loads =
    Array.init 4 (fun i ->
        step b.s_level_loads.(i) (fun p -> p.p_level_loads.(i)))
  in
  {
    Core_sim.measured_cycles = cycles;
    threads;
    op_issues;
    level_loads;
    switch_events = step b.s_switch (fun p -> p.p_switch);
    transitions;
    daf;
    prefetches = step b.s_prefetches (fun p -> p.p_prefetches);
  }

(* ----- lookup and recording ---------------------------------------------- *)

let lookup t key =
  Mutex.lock t.lock;
  let r = Hashtbl.find_opt t.table key in
  Mutex.unlock t.lock;
  match (r, t.disk) with
  | (Some _ as r), _ | r, None -> r
  | None, Some disk ->
    (match (Measurement_cache.read_entry disk key : record option) with
     | None -> None
     | Some r ->
       Mutex.lock t.lock;
       (* merge with any record another domain promoted meanwhile *)
       let merged =
         match Hashtbl.find_opt t.table key with
         | None -> r
         | Some cur ->
           {
             bases =
               List.fold_left
                 (fun acc b ->
                   if
                     List.exists
                       (fun (x : snapshot) -> x.s_measure = b.s_measure)
                       acc
                   then acc
                   else acc @ [ b ])
                 cur.bases r.bases;
             period =
               (match cur.period with Some _ -> cur.period | None -> r.period);
           }
       in
       Hashtbl.replace t.table key merged;
       Mutex.unlock t.lock;
       Some merged)

(* A window [measure] is admissible from base [b] with period [p] when
   the step count k = (measure - b.s_measure) / p_iters is integral
   and both totals stay at or above [p_min_total]:

   - The simulated trajectory up to the fingerprint match is a prefix
     of every run with total >= p_min_total (below it the run ends
     before reaching the matched state, so its counters are not of the
     head + k*period + tail form).
   - With every thread advancing p_iters iterations per period, a run
     whose total is s*p_iters larger credits exactly s more periods
     and then simulates a bit-identical tail: the skip threshold
     total - n*p_iters is unchanged. Core_sim's period skipping is
     asserted bit-identical to dense simulation, so
     dense(measure) = dense(b.s_measure) + k * delta, in both
     directions.

   Any admissible base yields the same activity (each equals the dense
   run's), so the first one wins. *)
let find_base (r : record) ~warmup ~measure =
  match List.find_opt (fun b -> b.s_measure = measure) r.bases with
  | Some b -> Some (b, 0)
  | None ->
    (match r.period with
     | Some p when p.p_iters > 0 ->
       List.find_map
         (fun b ->
           let diff = measure - b.s_measure in
           if
             diff mod p.p_iters = 0
             && warmup + measure >= p.p_min_total
             && warmup + b.s_measure >= p.p_min_total
           then Some (b, diff / p.p_iters)
           else None)
         r.bases
     | _ -> None)

let find t ~opmap ~daf ~warmup ~measure key =
  match lookup t key with
  | None ->
    Atomic.incr misses_ctr;
    None
  | Some r ->
    (match find_base r ~warmup ~measure with
     | None ->
       Atomic.incr misses_ctr;
       None
     | Some (b, k) ->
       Atomic.incr hits_ctr;
       Some (reify ~opmap ~daf b k r.period))

let record t ~opmap ~measure key (activity : Core_sim.activity)
    (pd : Core_sim.period_delta option) =
  let b = snapshot_of_activity ~opmap ~measure activity in
  let p = Option.map (period_of_delta ~opmap) pd in
  Mutex.lock t.lock;
  let cur =
    Option.value ~default:{ bases = []; period = None }
      (Hashtbl.find_opt t.table key)
  in
  let new_base =
    not (List.exists (fun (x : snapshot) -> x.s_measure = measure) cur.bases)
  in
  let new_period = cur.period = None && p <> None in
  let changed = new_base || new_period in
  let merged =
    {
      bases =
        (if new_base then List.filteri (fun i _ -> i < max_bases) (b :: cur.bases)
         else cur.bases);
      period = (if new_period then p else cur.period);
    }
  in
  if changed then Hashtbl.replace t.table key merged;
  Mutex.unlock t.lock;
  (* a record that gains a base or a period is appended again; the
     store serves the latest frame *)
  if changed then
    Option.iter (fun disk -> Measurement_cache.write_entry disk key merged) t.disk
