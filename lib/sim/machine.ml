open Mp_uarch
open Mp_codegen

type t = {
  uarch : Uarch_def.t;
  table : Energy_table.t;
  opmap : Core_sim.opmap;
  seed : int;
  cache : Measurement_cache.t option;
  replay : Replay.t option;
  uarch_fp : string;  (* keys machines with different uarchs apart *)
}

let create ?(seed = 2012) ?(cache = true) ?(replay = true) uarch =
  {
    uarch;
    table = Energy_table.power7;
    opmap = Core_sim.opmap_create ();
    seed;
    cache =
      (if cache then
         Some (Measurement_cache.create ?disk:(Measurement_cache.env_disk ()) ())
       else None);
    (* the replay table is process-global (records are keyed on
       everything that distinguishes machines), so machines share
       steady-state work; [~replay:false] opts a machine out — the
       benchmarks' dense reference machines need genuinely dense runs *)
    replay = (if replay then Some (Replay.global ()) else None);
    uarch_fp = Measurement_cache.uarch_fingerprint uarch;
  }

let uarch t = t.uarch

let measurement_cache t = t.cache

(* Intern every opcode a program will deploy, in body order (exactly the
   order [Core_sim.deploy] would), plus the implicit loop-closing bdnz.
   Doing this eagerly — and, for batches, in job order before fanning
   out — keeps id assignment independent of worker scheduling and of
   cache hits, so energy sums (whose float addition order follows ids)
   are bit-identical between serial and pooled runs. *)
let pre_intern t (p : Ir.t) = Core_sim.intern_program t.opmap p

(* Default measured window, in loop iterations per thread. Exact
   fixed-point pipe arithmetic makes every bounded kernel's steady
   state exactly periodic, so the period detector elides almost all of
   a long window — raising this is nearly free for periodic kernels
   and buys tighter steady-state averages everywhere. One knob: every
   harness path inherits it. *)
let default_measure = 8

(* A measurement depends on the machine seed through exactly two
   channels: address-stream synthesis at deploy time (memory programs)
   and the sensor-noise rng. Programs whose generating passes are all
   seed-independent (see [Passes.seed_independent]) — and which
   therefore carry no memory model — draw their noise from a canonical
   rng instead, so their measurements are bit-identical across machines
   with different seeds and the cache key can drop the seed: warm disk
   caches are shared across seeds. *)
let seed_independent_program (p : Ir.t) =
  p.Ir.memory_distribution = None
  && (not (Ir.has_memory p))
  && List.for_all Passes.seed_independent p.Ir.provenance

let run_rng t (config : Uarch_def.config) ~seeded name =
  let seed = if seeded then t.seed else 0 in
  Mp_util.Rng.create
    (Hashtbl.hash (seed, name, config.Uarch_def.cores, config.Uarch_def.smt))

(* Body positions of a program's memory instructions, ascending. *)
let memory_positions (p : Ir.t) =
  let targeted (i : Ir.instr) =
    i.Ir.mem_target <> None && Mp_isa.Instruction.is_memory i.Ir.op
  in
  let n =
    Array.fold_left (fun n i -> if targeted i then n + 1 else n) 0 p.Ir.body
  in
  let pos = Array.make n 0 in
  let k = ref 0 in
  Array.iteri
    (fun idx i ->
      if targeted i then begin
        pos.(!k) <- idx;
        incr k
      end)
    p.Ir.body;
  pos

(* One thread's address streams, in [positions] order, drawn from [rng]
   honouring the SMT partition. A program with memory instructions
   draws its plan's rotation orders even when none is targeted. *)
let thread_streams t rng (config : Uarch_def.config) tid (p : Ir.t) positions =
  if not (Ir.has_memory p) then [||]
  else
    match p.Ir.memory_distribution with
    | None ->
      failwith "Machine: memory instructions without a memory model pass"
    | Some distribution ->
      let plan =
        Mp_mem.Set_assoc_model.create ~uarch:t.uarch
          ~partition:(tid, config.Uarch_def.smt) ~distribution ()
      in
      let targets =
        Array.map
          (fun idx -> Option.get p.Ir.body.(idx).Ir.mem_target)
          positions
      in
      Array.map
        (fun (s : Mp_mem.Set_assoc_model.stream) ->
          s.Mp_mem.Set_assoc_model.addresses)
        (Mp_mem.Set_assoc_model.coordinated_streams plan rng ~targets)

(* index of [idx] in the ascending [positions] *)
let rec position_of positions idx lo hi =
  if lo >= hi then failwith "Machine: no stream prepared for memory instruction"
  else
    let mid = (lo + hi) / 2 in
    let v = positions.(mid) in
    if v = idx then mid
    else if v < idx then position_of positions idx (mid + 1) hi
    else position_of positions idx lo mid

(* Every thread's memory positions and streams, drawn in thread order. *)
let job_streams t rng config (per_thread : Ir.t array) =
  let positions = Array.make (Array.length per_thread) [||] in
  Array.iteri
    (fun tid p ->
      positions.(tid) <-
        (if tid > 0 && p == per_thread.(tid - 1) then positions.(tid - 1)
         else memory_positions p))
    per_thread;
  ( positions,
    Array.mapi
      (fun tid p -> thread_streams t rng config tid p positions.(tid))
      per_thread )

(* The lookup [Core_sim.deploy_threads] takes: thread, body position ->
   stream. *)
let stream_of (positions, streams) tid idx =
  let pos = positions.(tid) in
  streams.(tid).(position_of pos idx 0 (Array.length pos))

let mem_demand (activity : Core_sim.activity) =
  let cycles = float_of_int (max 1 activity.Core_sim.measured_cycles) in
  float_of_int activity.Core_sim.level_loads.(3) /. cycles

let simulate ~warmup ~measure ?period t (config : Uarch_def.config) name
    (per_thread : Ir.t array) =
  let seeded = not (Array.for_all seed_independent_program per_thread) in
  let rng = run_rng t config ~seeded name in
  (* Programs with memory instructions draw their address streams from
     [rng], and the sensor-noise rng continues from that phase — so such
     programs always draw their streams, replay hit or not, and their
     replay key carries the RNG inputs as a salt. [Core_sim.deploy]
     consumes no randomness, so only a dense run pays for it. Pure
     compute programs consume no randomness: a replay hit skips their
     stream draw too, and their records are shared across names, seeds
     and core counts. *)
  let consumes_rng = Array.exists Ir.has_memory per_thread in
  let streams = lazy (job_streams t rng config per_thread) in
  if consumes_rng then ignore (Lazy.force streams);
  let progs =
    lazy
      (Core_sim.deploy_threads ~uarch:t.uarch ~opmap:t.opmap
         ~streams:(stream_of (Lazy.force streams)) per_thread)
  in
  let salt =
    if consumes_rng then
      Some
        (Printf.sprintf "%d.%s.%d.%d"
           (if seeded then t.seed else 0)
           name config.Uarch_def.cores config.Uarch_def.smt)
    else None
  in
  (* same float fold as Core_sim's daf: per_thread is the per-thread
     program array, so a reified activity carries the identical value *)
  let daf =
    Array.fold_left
      (fun acc (p : Ir.t) -> acc +. Ir.data_activity_factor p)
      0.0 per_thread
    /. float_of_int (Array.length per_thread)
  in
  let run_once ~mem_latency =
    let dense () =
      Core_sim.run_ex ~uarch:t.uarch ~opmap:t.opmap ~mem_latency ~warmup
        ~measure ?period (Lazy.force progs)
    in
    match t.replay with
    | None -> fst (dense ())
    | Some table ->
      let key =
        Replay.key ~uarch:t.uarch_fp ~smt:config.Uarch_def.smt ~warmup
          ~mem_latency ?salt per_thread
      in
      (match Replay.find table ~opmap:t.opmap ~daf ~warmup ~measure key with
       | Some activity -> activity
       | None ->
         let activity, pd = dense () in
         Replay.record table ~opmap:t.opmap ~measure key activity pd;
         activity)
  in
  let activity = run_once ~mem_latency:t.uarch.Uarch_def.mem_latency in
  (* shared memory bandwidth: inflate memory latency when the chip's
     aggregate demand exceeds the sustainable rate, and re-simulate
     (the re-run replays under its own key — the latency component
     differs) *)
  let demand = mem_demand activity *. float_of_int config.Uarch_def.cores in
  let cap = t.uarch.Uarch_def.mem_bw_lines_per_cycle in
  let activity =
    if demand > cap then begin
      let factor = demand /. cap in
      let lat =
        int_of_float (float_of_int t.uarch.Uarch_def.mem_latency *. factor)
      in
      run_once ~mem_latency:lat
    end
    else activity
  in
  (rng, activity)

let measurement_of t config name rng (activity : Core_sim.activity) =
  let reading =
    Power_sim.sample ~table:t.table ~rng ~config ~opmap:t.opmap ~activity ()
  in
  let instrs =
    Array.fold_left
      (fun acc (c : Measurement.counters) -> acc +. c.Measurement.instrs)
      0.0 activity.Core_sim.threads
  in
  {
    Measurement.config;
    program = name;
    threads = activity.Core_sim.threads;
    core_ipc = instrs /. float_of_int (max 1 activity.Core_sim.measured_cycles);
    power = reading.Power_sim.sensor_mean;
    power_trace = reading.Power_sim.trace;
  }

(* ----- jobs --------------------------------------------------------------- *)

(* A job is a configuration plus its programs: one program is a
   homogeneous deployment replicated over the SMT threads, [smt]
   programs a heterogeneous one. The run label joins the program
   names, so a one-program job is named — and keyed — exactly like a
   one-thread heterogeneous job of the same program. *)
let job_name programs =
  String.concat "|" (List.map (fun (p : Ir.t) -> p.Ir.name) programs)

(* Seed-independent jobs drop the seed from the key — their bytes are
   the same on any machine, so warm disk entries are shared across
   seeds. [period] is deliberately absent: skipped and dense runs are
   bit-identical, so their entries are interchangeable by
   construction. *)
let job_key t ~warmup ~measure (config, programs) =
  let per_thread = Array.of_list programs in
  let seed =
    if Array.for_all seed_independent_program per_thread then None
    else Some t.seed
  in
  Measurement_cache.key ~uarch:t.uarch_fp ?seed ~config ~warmup ~measure
    ~name:(job_name programs) per_thread

(* Measure one keyed job, memoized in the machine's cache. *)
let run_job ~warmup ~measure ?period t
    (key, ((config : Uarch_def.config), programs)) =
  let compute () =
    let name = job_name programs in
    let per_thread =
      match programs with
      | [ p ] -> Array.make config.Uarch_def.smt p
      | ps -> Array.of_list ps
    in
    let rng, activity =
      simulate ~warmup ~measure ?period t config name per_thread
    in
    measurement_of t config name rng activity
  in
  match t.cache with
  | None -> compute ()
  | Some cache -> Measurement_cache.find_or_add cache key compute

let run ?(warmup = 1) ?(measure = default_measure) ?period t config (p : Ir.t) =
  pre_intern t p;
  let job = (config, [ p ]) in
  run_job ~warmup ~measure ?period t (job_key t ~warmup ~measure job, job)

let check_arity fn (config : Uarch_def.config) programs =
  if List.length programs <> config.Uarch_def.smt then
    invalid_arg (fn ^ ": one program per hardware thread required")

let run_heterogeneous ?(warmup = 1) ?(measure = default_measure) ?period t
    config programs =
  check_arity "Machine.run_heterogeneous" config programs;
  List.iter (pre_intern t) programs;
  let job = (config, programs) in
  run_job ~warmup ~measure ?period t (job_key t ~warmup ~measure job, job)

(* Scheduling cost hint: simulated work scales with enabled threads and
   loop size. Purely a hint — results are order-preserved regardless. *)
let job_cost (_, ((config : Uarch_def.config), ps)) =
  let body =
    List.fold_left (fun acc (p : Ir.t) -> acc + Array.length p.Ir.body) 0 ps
  in
  float_of_int (config.Uarch_def.cores * config.Uarch_def.smt * (body + 1))

(* ----- multi-process sharding -------------------------------------------- *)

let spec t =
  {
    Shard_exec.ms_seed = t.seed;
    ms_cache = t.cache <> None;
    ms_replay = t.replay <> None;
    ms_uarch = t.uarch;
  }

let jobs_recovered_total = Atomic.make 0

let jobs_recovered () = Atomic.get jobs_recovered_total

(* Dispatch already-deduplicated keyed jobs to the worker pool. A
   crashed slot's chunks re-enter the shared queue and finish on
   surviving slots, so positions come back [None] only when no worker
   could run them; those are re-run through [in_process] — the
   coordinator's own domain pool — and [jobs_recovered] counts them. A
   dying worker degrades to a slower batch, never a failed or wrong
   one. *)
let sharded_exec t ~warmup ~measure ?period ~procs ~hosts ~shard_pool
    ~in_process jobs =
  let slots =
    match shard_pool with
    | Some sp -> Shard_exec.pool_size sp
    | None -> procs + List.length hosts
  in
  let fan_out =
    let width =
      Mp_util.Parallel.effective_width (Some job_cost) (Array.of_list jobs)
    in
    (* the adaptive decision reuses the domain pool's predicate, with
       the size floored at 2: a single worker still carries dispatch
       overhead worth amortising, but [worthwhile] vetoes size 1
       outright *)
    Mp_util.Parallel.worthwhile ~size:(max 2 slots) ~jobs:(List.length jobs)
      ~width
  in
  if not fan_out then in_process jobs
  else
    let p =
      match shard_pool with
      | Some p -> p
      | None -> Shard_exec.get_pool ~hosts procs
    in
    let res =
      Shard_exec.run_jobs p ~spec:(spec t) ~warmup ~measure ?period
        (List.map
           (fun (_, (config, ps)) ->
             { Shard_exec.j_config = config; j_programs = ps })
           jobs)
    in
    let jobs_arr = Array.of_list jobs in
    let from_worker = Array.map Option.is_some res in
    let missing = ref [] in
    Array.iteri (fun i r -> if Option.is_none r then missing := i :: !missing) res;
    let missing = List.rev !missing in
    if missing <> [] then begin
      ignore (Atomic.fetch_and_add jobs_recovered_total (List.length missing));
      let recovered = in_process (List.map (fun i -> jobs_arr.(i)) missing) in
      List.iter2 (fun i m -> res.(i) <- Some m) missing recovered
    end;
    (* worker-computed results warm this machine's cache under the
       job's key, so later runs and batches hit without resimulating
       what another process already measured *)
    Option.iter
      (fun cache ->
        Array.iteri
          (fun i fw ->
            if fw then
              Measurement_cache.add cache (fst jobs_arr.(i)) (Option.get res.(i)))
          from_worker)
      t.cache;
    Array.to_list (Array.map Option.get res)

(* ----- duplicate collapsing ---------------------------------------------- *)

(* Search drivers routinely submit the same point several times within
   one batch (GA elites, re-generated crossovers, symmetric sweeps).
   Measurements are deterministic given the cache key, so evaluating
   each distinct key once and scattering the result back preserves
   bit-identity while skipping the redundant simulations — and, unlike
   the measurement cache's single-flight, never parks a worker waiting
   on a twin job. *)

let batch_dups = Atomic.make 0

let batch_dup_collapsed () = Atomic.get batch_dups

(* Evaluate each distinct key once (first occurrence order, so worker
   scheduling and opcode interning see the same sequence a deduped
   caller would submit) and scatter results back positionally. *)
let dedup_map exec keyed =
  let slot_of = Hashtbl.create 64 in
  let uniques = ref [] in
  let n_unique = ref 0 in
  let slots =
    List.map
      (fun ((k, _) as job) ->
        match Hashtbl.find_opt slot_of k with
        | Some slot ->
          Atomic.incr batch_dups;
          slot
        | None ->
          let slot = !n_unique in
          Hashtbl.add slot_of k slot;
          incr n_unique;
          uniques := job :: !uniques;
          slot)
      keyed
  in
  let results = Array.of_list (exec (List.rev !uniques)) in
  List.map (fun slot -> results.(slot)) slots

(* procs resolution: explicit arg wins; a caller-supplied pool implies
   its own size; otherwise the MP_PROCS knob decides (0 = in-process,
   unchanged behavior). *)
let resolve_procs procs shard_pool =
  match (procs, shard_pool) with
  | Some n, _ -> max 0 n
  | None, Some sp -> Shard_exec.pool_size sp
  | None, None -> Shard_exec.env_procs ()

(* same shape for remote hosts: explicit arg wins; a caller-supplied
   pool carries its own peers (so no extra hosts); otherwise the
   MP_HOSTS knob decides ([] = no remotes, unchanged behavior) *)
let resolve_hosts hosts shard_pool =
  match (hosts, shard_pool) with
  | Some h, _ -> h
  | None, Some _ -> []
  | None, None -> Shard_exec.env_hosts ()

(* The one batch path under [run_batch], [run_heterogeneous_batch] and
   the worker's [exec_request]: every job is keyed once, and the key
   serves dedup, the cache lookup and the cache fill after a shard. *)
let batch ?(warmup = 1) ?(measure = default_measure) ?period ?pool ?procs
    ?hosts ?shard_pool ?(dedup = true) t jobs =
  (* deterministic id assignment: intern everything in job order —
     duplicates included — before any worker touches the opmap *)
  List.iter (fun (_, ps) -> List.iter (pre_intern t) ps) jobs;
  let pool =
    match pool with Some p -> p | None -> Mp_util.Parallel.global ()
  in
  let procs = resolve_procs procs shard_pool in
  let hosts = resolve_hosts hosts shard_pool in
  let in_process keyed =
    (* chunked: replay and cache hits make individual jobs tiny, and
       chunking amortises deque traffic over them; auto_chunk leaves
       ~8 chunks per worker so stealing can still rebalance tails *)
    Mp_util.Parallel.map_chunked ~cost:job_cost pool
      (run_job ~warmup ~measure ?period t)
      keyed
  in
  let exec keyed =
    if procs <= 0 && hosts = [] then in_process keyed
    else
      sharded_exec t ~warmup ~measure ?period ~procs ~hosts ~shard_pool
        ~in_process keyed
  in
  let keyed = List.map (fun job -> (job_key t ~warmup ~measure job, job)) jobs in
  if dedup then dedup_map exec keyed else exec keyed

let run_batch ?warmup ?measure ?period ?pool ?procs ?hosts ?shard_pool ?dedup
    t jobs =
  batch ?warmup ?measure ?period ?pool ?procs ?hosts ?shard_pool ?dedup t
    (List.map (fun (config, p) -> (config, [ p ])) jobs)

let run_heterogeneous_batch ?warmup ?measure ?period ?pool ?procs ?hosts
    ?shard_pool ?dedup t jobs =
  (* every job up front, before dedup or dispatch: a worker would run
     a one-program job as a replicated deployment instead of
     rejecting it *)
  List.iter
    (fun (config, ps) -> check_arity "Machine.run_heterogeneous_batch" config ps)
    jobs;
  batch ?warmup ?measure ?period ?pool ?procs ?hosts ?shard_pool ?dedup t jobs

let run_phases ?pool t config phases =
  match phases with
  | [] -> invalid_arg "Machine.run_phases: no phases"
  | _ ->
    let total_w = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 phases in
    if total_w <= 0.0 then invalid_arg "Machine.run_phases: zero weight";
    let ms = run_batch ?pool t (List.map (fun (p, _) -> (config, p)) phases) in
    let results = List.map2 (fun m (_, w) -> (m, w /. total_w)) ms phases in
    let nominal = 1_000_000.0 in
    let combine_thread idx =
      List.fold_left
        (fun acc ((m : Measurement.t), w) ->
          let c = m.Measurement.threads.(idx) in
          let r v = Measurement.rate c v *. w *. nominal in
          {
            Measurement.cycles = nominal;
            instrs = acc.Measurement.instrs +. r c.Measurement.instrs;
            dispatched = acc.Measurement.dispatched +. r c.Measurement.dispatched;
            fxu = acc.Measurement.fxu +. r c.Measurement.fxu;
            lsu = acc.Measurement.lsu +. r c.Measurement.lsu;
            vsu = acc.Measurement.vsu +. r c.Measurement.vsu;
            bru = acc.Measurement.bru +. r c.Measurement.bru;
            st = acc.Measurement.st +. r c.Measurement.st;
            l1 = acc.Measurement.l1 +. r c.Measurement.l1;
            l2 = acc.Measurement.l2 +. r c.Measurement.l2;
            l3 = acc.Measurement.l3 +. r c.Measurement.l3;
            mem = acc.Measurement.mem +. r c.Measurement.mem;
          })
        { Measurement.zero_counters with cycles = nominal }
        results
    in
    let nthreads = config.Uarch_def.smt in
    let threads = Array.init nthreads combine_thread in
    let power =
      List.fold_left (fun acc (m, w) -> acc +. (m.Measurement.power *. w)) 0.0
        results
    in
    let core_ipc =
      List.fold_left (fun acc (m, w) -> acc +. (m.Measurement.core_ipc *. w))
        0.0 results
    in
    let trace =
      Array.concat
        (List.map
           (fun ((m : Measurement.t), w) ->
             let n = max 2 (int_of_float (w *. 24.0)) in
             let len = Array.length m.Measurement.power_trace in
             if len = 0 then Array.make n m.Measurement.power
             else
               Array.init n (fun i -> m.Measurement.power_trace.(i mod len)))
           results)
    in
    let name =
      match phases with (p, _) :: _ -> p.Ir.name ^ "-phased" | [] -> "phased"
    in
    {
      Measurement.config;
      program = name;
      threads;
      core_ipc;
      power;
      power_trace = trace;
    }

let baseline_reading t =
  let rng = Mp_util.Rng.create (Hashtbl.hash (t.seed, "baseline")) in
  let p = t.table.Energy_table.idle_power in
  let rel = Mp_util.Rng.gaussian rng ~mu:1.0 ~sigma:t.table.Energy_table.noise_rel in
  Float.max 0.0 (p *. rel)

let idle_reading t config =
  let rng = run_rng t config ~seeded:true "idle" in
  let p = Power_sim.idle_power ~table:t.table ~config in
  let rel = Mp_util.Rng.gaussian rng ~mu:1.0 ~sigma:t.table.Energy_table.noise_rel in
  Float.max 0.0 (p *. rel)

(* ----- worker-side executor ---------------------------------------------- *)

(* One machine per distinct spec, memoized so consecutive request
   frames of a campaign reuse a warm opmap, cache and replay
   connection. Keyed on the uarch fingerprint — [machine_spec] values
   can't be compared structurally (the uarch holds a closure). *)
let worker_machines : (string * int * bool * bool, t) Hashtbl.t =
  Hashtbl.create 4

let machine_for_spec (s : Shard_exec.machine_spec) =
  let k =
    ( Measurement_cache.uarch_fingerprint s.Shard_exec.ms_uarch,
      s.Shard_exec.ms_seed,
      s.Shard_exec.ms_cache,
      s.Shard_exec.ms_replay )
  in
  match Hashtbl.find_opt worker_machines k with
  | Some m -> m
  | None ->
    let m =
      create ~seed:s.Shard_exec.ms_seed ~cache:s.Shard_exec.ms_cache
        ~replay:s.Shard_exec.ms_replay s.Shard_exec.ms_uarch
    in
    Hashtbl.add worker_machines k m;
    m

(* Execute a coordinator's request inside a worker process through the
   same in-process batch path, so a shard computes exactly what the
   coordinator would. The coordinator already deduplicated the jobs
   and checked their arity. *)
let exec_request (rq : Shard_exec.request) =
  let jobs =
    Array.to_list
      (Array.map
         (fun (j : Shard_exec.job) -> (j.Shard_exec.j_config, j.Shard_exec.j_programs))
         rq.Shard_exec.rq_jobs)
  in
  Array.of_list
    (batch ~warmup:rq.Shard_exec.rq_warmup ~measure:rq.Shard_exec.rq_measure
       ~period:rq.Shard_exec.rq_period ~procs:0 ~hosts:[] ~dedup:false
       (machine_for_spec rq.Shard_exec.rq_spec)
       jobs)

(* Every executable linking the simulator can be its own shard worker:
   the executor is injected (breaking the Machine <-> Shard_exec
   cycle), then the worker flag is checked — [maybe_become_worker]
   never returns in a worker process. *)
let () =
  Shard_exec.install_executor exec_request;
  Shard_exec.maybe_become_worker ()
