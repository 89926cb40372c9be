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

type snapshot = {
  s_measure : int;
  s_cycles : int;
  s_counters : int array array; (* per thread: raw_counters in order *)
  s_op_issues : (string * int) list;
  s_level_loads : int array;
  s_switch : int;
  s_transitions : (string * string * int) list;
  s_prefetches : int;
}

type period = {
  p_iters : int;
  p_cycles : int;
  p_min_total : int;
  p_counters : int array array;
  p_op_issues : (string * int) list;
  p_level_loads : int array;
  p_switch : int;
  p_transitions : (string * string * int) list;
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

let global_table = ref None
let global_lock = Mutex.create ()

(* [Mutex.protect]: a rejected MP_CACHE raises inside the critical
   section *)
let global () =
  Mutex.protect global_lock (fun () ->
      match !global_table with
      | Some r -> r
      | None ->
        let r = create ?disk_dir:(env_disk_dir ()) () in
        global_table := Some r;
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

(* Records keep their name-keyed lists sorted by name (pairs by first,
   then second name), so reifying merges base and period in one linear
   walk. *)
let compare_pair (a1, b1, _) (a2, b2, _) =
  let c = String.compare a1 a2 in
  if c <> 0 then c else String.compare b1 b2

(* Name order is rank order ({!Core_sim.name_ranks}): sort on ints, then
   name. *)
let op_issues_by_name ~opmap ops =
  let rank = Core_sim.name_ranks opmap in
  List.map
    (fun (id, c) -> (Core_sim.opmap_name opmap id, c))
    (List.sort (fun (a, _) (b, _) -> Int.compare rank.(a) rank.(b)) ops)

let transitions_by_name ~opmap trans =
  let rank = Core_sim.name_ranks opmap in
  let key (a, b, _) = (rank.(a) * Array.length rank) + rank.(b) in
  List.map
    (fun (a, b, c) ->
      (Core_sim.opmap_name opmap a, Core_sim.opmap_name opmap b, c))
    (List.sort (fun x y -> Int.compare (key x) (key y)) trans)

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
    s_op_issues = op_issues_by_name ~opmap !issued;
    s_level_loads = Array.copy a.Core_sim.level_loads;
    s_switch = a.Core_sim.switch_events;
    s_transitions = transitions_by_name ~opmap a.Core_sim.transitions;
    s_prefetches = a.Core_sim.prefetches;
  }

let period_of_delta ~opmap (pd : Core_sim.period_delta) =
  {
    p_iters = pd.Core_sim.pd_period_iters;
    p_cycles = pd.Core_sim.pd_cycles;
    p_min_total = pd.Core_sim.pd_min_total;
    p_counters = pd.Core_sim.pd_counters;
    p_op_issues = op_issues_by_name ~opmap pd.Core_sim.pd_op_issues;
    p_level_loads = pd.Core_sim.pd_level_loads;
    p_switch = pd.Core_sim.pd_switch;
    p_transitions = transitions_by_name ~opmap pd.Core_sim.pd_transitions;
    p_prefetches = pd.Core_sim.pd_prefetches;
  }

(* The sorted names of [base] and [step], each once, with
   [base + k * step] counts: a linear merge of two name-sorted lists.
   Zero sums are kept. *)
let merge_ops k base step =
  let n = List.length base + List.length step in
  let names = Array.make n "" and counts = Array.make n 0 in
  let len = ref 0 in
  let emit name c =
    names.(!len) <- name;
    counts.(!len) <- c;
    incr len
  in
  let rec go base step =
    match (base, step) with
    | [], [] -> ()
    | (n1, c) :: bs, [] -> emit n1 c; go bs []
    | [], (n2, d) :: ss -> emit n2 (k * d); go [] ss
    | (n1, c) :: bs, (n2, d) :: ss ->
      let o = String.compare n1 n2 in
      if o = 0 then (emit n1 (c + (k * d)); go bs ss)
      else if o < 0 then (emit n1 c; go bs step)
      else (emit n2 (k * d); go base ss)
  in
  go base step;
  (Array.sub names 0 !len, Array.sub counts 0 !len)

(* The id of [name] among the sorted [names] (ids alongside), interned
   when absent. *)
let rec id_of opmap names ids name lo hi =
  if lo >= hi then Core_sim.intern opmap name
  else
    let mid = (lo + hi) / 2 in
    let c = String.compare names.(mid) name in
    if c = 0 then ids.(mid)
    else if c < 0 then id_of opmap names ids name (mid + 1) hi
    else id_of opmap names ids name lo mid

(* [base + k * step] over two (prev, next)-name-sorted pair lists,
   zero sums dropped, as (prev id, next id, count) in ascending id
   order: the merge writes ids and counts to arrays, and the order is
   one int sort of (prev * n_ids + next) * n + position. *)
let merge_pairs ~opmap ~names ~ids k base step =
  let cap = List.length base + List.length step in
  let prev = Array.make cap 0 and next = Array.make cap 0 in
  let counts = Array.make cap 0 in
  let len = ref 0 in
  let id name = id_of opmap names ids name 0 (Array.length names) in
  let emit a b c =
    if c <> 0 then begin
      prev.(!len) <- id a;
      next.(!len) <- id b;
      counts.(!len) <- c;
      incr len
    end
  in
  let rec go base step =
    match (base, step) with
    | [], [] -> ()
    | (a, b, c) :: bs, [] -> emit a b c; go bs []
    | [], (a, b, d) :: ss -> emit a b (k * d); go [] ss
    | ((a1, b1, c) as x) :: bs, ((a2, b2, d) as y) :: ss ->
      let o = compare_pair x y in
      if o = 0 then (emit a1 b1 (c + (k * d)); go bs ss)
      else if o < 0 then (emit a1 b1 c; go bs step)
      else (emit a2 b2 (k * d); go base ss)
  in
  go base step;
  let n = !len in
  let n_ids = 1 + Array.fold_left max (Array.fold_left max 0 prev) next in
  let keys =
    Array.init n (fun i -> (((prev.(i) * n_ids) + next.(i)) * n) + i)
  in
  Array.sort (fun (x : int) y -> compare x y) keys;
  let acc = ref [] in
  for j = n - 1 downto 0 do
    let i = keys.(j) mod n in
    acc := (prev.(i), next.(i), counts.(i)) :: !acc
  done;
  !acc

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
  (* every name of base or period, zeros included: the array spans the
     largest of their ids, as a dense run's spans every interned one;
     each distinct name is interned once *)
  let step_ops, step_pairs, k' =
    match p with
    | None -> ([], [], 0)
    | Some p -> (p.p_op_issues, p.p_transitions, k)
  in
  let names, counts = merge_ops k' b.s_op_issues step_ops in
  let ids = Array.map (Core_sim.intern opmap) names in
  let op_issues = Array.make (Array.fold_left max 0 ids + 1) 0 in
  Array.iteri (fun i id -> op_issues.(id) <- counts.(i)) ids;
  (* dropping zeros, as a dense run lists only live pairs *)
  let transitions =
    merge_pairs ~opmap ~names ~ids k' b.s_transitions step_pairs
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
  let bases =
    if List.exists (fun (x : snapshot) -> x.s_measure = measure) cur.bases
    then cur.bases
    else
      let bs = b :: cur.bases in
      if List.length bs > max_bases then
        List.filteri (fun i _ -> i < max_bases) bs
      else bs
  in
  let period = match cur.period with Some _ -> cur.period | None -> p in
  let merged = { bases; period } in
  let changed = merged <> cur in
  if changed then Hashtbl.replace t.table key merged;
  Mutex.unlock t.lock;
  if changed then
    Option.iter (fun disk -> Measurement_cache.write_entry disk key merged) t.disk
