(* Parallel-engine benchmark: the same measurement batch run serially
   (pool of one, no cache) and across the domain pool, with a
   bit-identical result check — the engine's determinism contract is
   asserted on every harness run, not only in the test suite. Also
   home to the steady-state replay benchmark ({!replay_bench}) and the
   worker scaling curve written to BENCH_scaling.json. *)

open Microprobe

(* Exact period skipping: the same periodic steady-state kernel
   simulated densely and with the period detector on, on fresh
   cache-less machines so every run actually simulates. Two kernels:
   independent fadd (occupancy 1.0, the simplest steady state) and
   independent mulld (occupancy 1.43 — non-dyadic, exercising the
   fixed-point residual arithmetic: its boundary state only repeats
   once the fractional tick phases realign). The kernel size of 250 is
   deliberate: 250 mulld issues advance a pipe's residual phase by
   250*143 = 50 mod 100 ticks per iteration, so the phases alternate
   between two genuinely fractional states with a 2-iteration period —
   a state the old float residuals could never fingerprint-match —
   while still repeating early enough inside measure=64 that the
   skipping run simulates only a short head and tail. This is the
   acceptance benchmark for the detector, and the bit-identity checks
   plus the hits>0 checks make CI fail loudly if either kernel class
   regresses into silent dense simulation. *)
let period_kernel (ctx : Context.t) ~mnemonic ~prefix ~measure =
  let arch = ctx.Context.arch in
  let ins = Arch.find_instruction arch mnemonic in
  let synth = Synthesizer.create ~name:("period-" ^ mnemonic) arch in
  Synthesizer.add_pass synth (Passes.skeleton ~size:250);
  Synthesizer.add_pass synth (Passes.fill_sequence [ ins ]);
  Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
  let p = Synthesizer.synthesize ~seed:7 synth in
  let cfg = Context.config ctx ~cores:8 ~smt:2 in
  let reps = if ctx.Context.quick then 5 else 20 in
  let time_reps ~period =
    (* a fresh machine per side: no measurement cache and no replay
       table, same seed, so the two sides are directly comparable,
       bit-identical, and every rep actually simulates *)
    let machine = Machine.create ~cache:false ~replay:false arch.Arch.uarch in
    let t0 = Unix.gettimeofday () in
    let last = ref None in
    for _ = 1 to reps do
      last := Some (Machine.run ~measure ~period machine cfg p)
    done;
    (Option.get !last, Unix.gettimeofday () -. t0)
  in
  let dense, t_dense = time_reps ~period:false in
  let hits0 = Core_sim.period_hits () in
  let skipped0 = Core_sim.cycles_skipped () in
  let skip, t_skip = time_reps ~period:true in
  let hits = Core_sim.period_hits () - hits0 in
  let skipped = Core_sim.cycles_skipped () - skipped0 in
  if compare dense skip <> 0 then
    failwith
      (Printf.sprintf
         "period bench: %s skipping run diverges from the dense run" mnemonic);
  if hits = 0 then
    failwith
      (Printf.sprintf
         "period bench: no period detected on periodic kernel %s — the \
          detector has regressed into silent dense simulation" mnemonic);
  let speedup = t_dense /. Float.max t_skip 1e-9 in
  Context.record_metric ctx (prefix ^ "_measure") (float_of_int measure);
  Context.record_metric ctx (prefix ^ "_dense_seconds") t_dense;
  Context.record_metric ctx (prefix ^ "_skip_seconds") t_skip;
  Context.record_metric ctx (prefix ^ "_speedup") speedup;
  Context.record_metric ctx (prefix ^ "_hits") (float_of_int hits);
  Context.record_metric ctx (prefix ^ "_cycles_skipped") (float_of_int skipped);
  Context.log
    "%s @8c-smt2, measure=%d, %d reps: dense %.2fs, skipping %.2fs ->\n\
     %.1fx speedup; %d periods detected, %d cycles skipped;\n\
     results bit-identical"
    mnemonic measure reps t_dense t_skip speedup hits skipped

let period_bench (ctx : Context.t) =
  Context.section "Exact period skipping — dense vs skipping simulation";
  period_kernel ctx ~mnemonic:"fadd" ~prefix:"period_bench" ~measure:64;
  period_kernel ctx ~mnemonic:"mulld" ~prefix:"period_nondyadic" ~measure:64

(* The shared job list: a slice of the Table-2 training suite fanned
   across heterogeneous configurations, so the batch has the skewed
   cost profile (1c-smt1 vs 8c-smt4 is ~30x) the steal scheduler and
   the cost-hinted width estimate are designed around. *)
let bench_jobs (ctx : Context.t) ~skip configs =
  let programs = Context.family_programs ~skip ctx in
  ( List.length programs,
    List.concat_map
      (fun c -> List.map (fun p -> (c, p)) programs)
      configs )

(* One timed lap of the batch on a given (machine, pool). *)
let lap machine pool jobs =
  let t0 = Unix.gettimeofday () in
  let r = Machine.run_batch ~pool machine jobs in
  (r, Unix.gettimeofday () -. t0)

(* ----- scaling curve ----------------------------------------------------- *)

(* The same replay-off, cache-off batch across pools of 1, 2, 4 and 8
   workers; every lap is checked bit-identical against the 1-worker
   reference and the curve is written to BENCH_scaling.json so CI can
   archive how the engine scales on its runner. Workers beyond the
   detected core count are deliberately included — the curve should
   show the oversubscription plateau, not hide it. *)
let scaling_workers = [ 1; 2; 4; 8 ]

let write_scaling_json ~quick ~jobs ~procpool ~netpool ~sched_skew ~stride
    entries =
  let path = "BENCH_scaling.json" in
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"mode\": %S,\n" (if quick then "quick" else "full");
  out "  \"detected_cores\": %d,\n" (Mp_util.Parallel.detected_cores ());
  out "  \"pool_size_effective\": %d,\n" (Mp_util.Parallel.default_size ());
  out "  \"jobs\": %d,\n" jobs;
  (* membench's STREAM-like stride sweep, when it ran in this harness
     invocation — the seed of the ROADMAP's bandwidth campaign *)
  if stride <> [] then begin
    out "  \"stride_sweep\": [\n";
    List.iteri
      (fun i (s, pm, lm, frac : int * float * float * float array) ->
        out
          "    { \"stride_lines\": %d, \"packed_maccess_per_s\": %.3f, \
           \"list_maccess_per_s\": %.3f, \"frac\": { \"L1\": %.4f, \"L2\": \
           %.4f, \"L3\": %.4f, \"MEM\": %.4f } }%s\n"
          s pm lm frac.(0) frac.(1) frac.(2) frac.(3)
          (if i = List.length stride - 1 then "" else ","))
      stride;
    out "  ],\n"
  end;
  out "  \"entries\": [\n";
  List.iteri
    (fun i (workers, seconds, speedup) ->
      out "    { \"workers\": %d, \"seconds\": %.6f, \"speedup\": %.6f }%s\n"
        workers seconds speedup
        (if i = List.length entries - 1 then "" else ","))
    entries;
  out "  ],\n";
  (let combos, speedup, fanned = procpool in
   out "  \"procpool\": {\n";
   out "    \"fanned_out\": %b,\n" fanned;
   out "    \"speedup\": %.6f,\n" speedup;
   out "    \"entries\": [\n";
   List.iteri
     (fun i (w, d, seconds) ->
       out
         "      { \"procs\": %d, \"domains_per_proc\": %d, \"seconds\": \
          %.6f }%s\n"
         w d seconds
         (if i = List.length combos - 1 then "" else ","))
     combos;
   out "    ]\n";
   out "  },\n");
  (let nentries, recovered, dispatched = netpool in
   out "  \"netpool\": {\n";
   out "    \"dispatched\": %b,\n" dispatched;
   out "    \"jobs_recovered\": %d,\n" recovered;
   out "    \"entries\": [\n";
   List.iteri
     (fun i (w, seconds) ->
       out "      { \"remote_workers\": %d, \"seconds\": %.6f }%s\n" w seconds
         (if i = List.length nentries - 1 then "" else ","))
     nentries;
   out "    ]\n";
   out "  },\n");
  (let skew_jobs, t_dynamic, fanned = sched_skew in
   out "  \"sched_skew\": {\n";
   out "    \"fanned_out\": %b,\n" fanned;
   out "    \"jobs\": %d,\n" skew_jobs;
   out "    \"dynamic_seconds\": %.6f\n" t_dynamic;
   out "  }\n");
  out "}\n";
  close_out oc;
  Context.log "wrote %s" path

(* ----- proc-pool curve ---------------------------------------------------- *)

(* The process-level fan-out over the same batch: every combination of
   1/2 shard workers x 1/2 domains per worker, each lap checked
   bit-identical against plain in-process execution. The headline
   number is 2 workers vs 1 at a single domain each — pure process
   sharding with the domain layer held flat. *)
let procpool_combos = [ (1, 1); (1, 2); (2, 1); (2, 2) ]

let procpool_curve (ctx : Context.t) machine jobs =
  Context.section "Process fan-out curve — 1/2 workers x 1/2 domains";
  (* in-process reference, process sharding explicitly off *)
  let reference = Machine.run_batch ~procs:0 machine jobs in
  let shard0, shard1 =
    List.fold_left
      (fun (a, b) (_, p) ->
        if Shard_exec.shard_index ~shards:2 [ p ] = 0 then (a + 1, b)
        else (a, b + 1))
      (0, 0) jobs
  in
  let rec0 = Machine.jobs_recovered () in
  let sent0 = Mp_util.Workerpool.frames_sent () in
  let entries =
    List.map
      (fun (w, d) ->
        let sp =
          Shard_exec.create_pool
            ~env:[ ("MP_POOL_SIZE", string_of_int d) ]
            w
        in
        (* prime lap: spawns the workers and warms their machines
           outside the timed window *)
        let prime = Machine.run_batch ~shard_pool:sp machine jobs in
        let t0 = Unix.gettimeofday () in
        let r = Machine.run_batch ~shard_pool:sp machine jobs in
        let dt = Unix.gettimeofday () -. t0 in
        Shard_exec.shutdown_pool sp;
        if compare reference prime <> 0 || compare reference r <> 0 then
          failwith
            (Printf.sprintf
               "procpool curve: results at %d workers x %d domains diverge \
                from in-process execution"
               w d);
        (w, d, dt))
      procpool_combos
  in
  let recovered = Machine.jobs_recovered () - rec0 in
  let dispatched = Mp_util.Workerpool.frames_sent () > sent0 in
  let time_of w d =
    List.find_map
      (fun (w', d', t) -> if w' = w && d' = d then Some t else None)
      entries
    |> Option.get
  in
  let speedup = time_of 1 1 /. Float.max (time_of 2 1) 1e-9 in
  (* "genuinely fanned out": frames actually crossed process
     boundaries, both shards carried work, nothing had to be
     recovered, and the runner has a second core to run it on *)
  let fanned =
    dispatched && recovered = 0 && shard0 > 0 && shard1 > 0
    && Mp_util.Parallel.detected_cores () >= 2
  in
  List.iter
    (fun (w, d, t) ->
      Context.record_metric ctx
        (Printf.sprintf "procpool_w%d_d%d_seconds" w d)
        t;
      Context.log "%d worker%s x %d domain%s: %.2fs" w
        (if w = 1 then "" else "s")
        d
        (if d = 1 then "" else "s")
        t)
    entries;
  Context.record_metric ctx "procpool_speedup" speedup;
  Context.record_metric ctx "procpool_fanned_out" (if fanned then 1. else 0.);
  Context.record_metric ctx "procpool_jobs_recovered_delta"
    (float_of_int recovered);
  Context.log
    "2 workers vs 1 (single domain each): %.2fx; %d jobs recovered;\n\
     all laps bit-identical to in-process execution"
    speedup recovered;
  (* CI gate, mirroring parbench: a batch the coordinator chose to
     shard across two live workers must not lose to one worker — below
     parity the sharding or the placement has regressed. When the
     dispatch never actually fanned out (single core, adaptive
     fallback, one-sided shard spread) or a worker had to be recovered
     mid-curve, wall-clock comparisons say nothing about the sharding
     layer, so the gate stands down. *)
  if fanned && speedup < 1.0 then
    failwith
      (Printf.sprintf
         "procpool curve: 2 workers only %.2fx vs 1 worker (floor 1.0x, \
          fanned out)"
         speedup);
  if not fanned then
    Context.log
      "speedup gate skipped (%s)"
      (if not dispatched then "dispatch stayed in-process"
       else if recovered > 0 then "jobs were recovered mid-curve"
       else if shard0 = 0 || shard1 = 0 then "one-sided shard spread"
       else "single detected core");
  (entries, speedup, fanned)

(* ----- loopback net-pool smoke ------------------------------------------- *)

(* The socket transport over the same batch: a persistent worker is
   spawned on a loopback TCP port (`microprobe worker --listen` in
   self-exec form) and the batch runs once in-process (0 remote
   workers) and once against the remote peer only (1 remote worker),
   every lap checked bit-identical against the in-process reference.
   This is a wire-path smoke, not a scaling claim — both ends share
   the same machine — so the gates are bit-identity and zero
   recoveries over a healthy peer, with the laps recorded to the
   `netpool` section of BENCH_scaling.json. *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> assert false)

let netpool_curve (ctx : Context.t) machine jobs =
  Context.section "Remote fan-out smoke — loopback TCP worker";
  let reference = Machine.run_batch ~procs:0 machine jobs in
  let t0 = Unix.gettimeofday () in
  let local = Machine.run_batch ~procs:0 machine jobs in
  let t_local = Unix.gettimeofday () -. t0 in
  if compare reference local <> 0 then
    failwith "netpool smoke: in-process laps diverge from each other";
  let port = free_port () in
  let pid = Shard_exec.spawn_worker ~port () in
  let rec0 = Machine.jobs_recovered () in
  let nf0 = Mp_util.Workerpool.frames_sent () in
  let t_remote =
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        let sp = Shard_exec.create_pool ~hosts:[ ("127.0.0.1", port) ] 0 in
        Fun.protect
          ~finally:(fun () -> Shard_exec.shutdown_pool sp)
          (fun () ->
            (* prime lap: establishes the connection and warms the
               worker's machine outside the timed window *)
            let prime = Machine.run_batch ~shard_pool:sp machine jobs in
            let t0 = Unix.gettimeofday () in
            let r = Machine.run_batch ~shard_pool:sp machine jobs in
            let dt = Unix.gettimeofday () -. t0 in
            if compare reference prime <> 0 || compare reference r <> 0 then
              failwith
                "netpool smoke: remote results diverge from in-process \
                 execution";
            dt))
  in
  let recovered = Machine.jobs_recovered () - rec0 in
  let dispatched = Mp_util.Workerpool.frames_sent () > nf0 in
  Context.record_metric ctx "netpool_local_seconds" t_local;
  Context.record_metric ctx "netpool_remote_seconds" t_remote;
  Context.record_metric ctx "netpool_dispatched" (if dispatched then 1. else 0.);
  Context.record_metric ctx "netpool_jobs_recovered_delta"
    (float_of_int recovered);
  Context.log
    "in-process %.2fs, loopback remote worker %.2fs; %d jobs recovered;\n\
     all laps bit-identical to in-process execution"
    t_local t_remote recovered;
  (* CI gate: over a healthy loopback peer nothing may need recovering
     — a nonzero delta means the socket transport dropped a live
     connection mid-batch. Stands down only if the dispatch never
     reached the wire (adaptive fallback on a tiny batch). *)
  if dispatched && recovered > 0 then
    failwith
      (Printf.sprintf
         "netpool smoke: %d jobs recovered over a healthy loopback worker"
         recovered);
  if not dispatched then
    Context.log "recovery gate skipped (dispatch stayed in-process)";
  ([ (0, t_local); (1, t_remote) ], recovered, dispatched)

(* ----- scheduling skew --------------------------------------------------- *)

(* A deliberately skewed batch: one heavy program measured under many
   configurations — placement ignores configuration, so every heavy
   job lands on the same slot — plus light programs that spread over
   the rest of the pool. The work-conserving scheduler drains the
   heavy slot's chunks onto its idle siblings; the lap is timed and
   checked bit-identical to in-process execution. The pool mixes both
   transports — 2 subprocess workers plus 1 loopback TCP worker — each
   restricted to a single domain so the skew is carried by the
   scheduling layer, not washed out by intra-worker parallelism;
   period skipping is off so the heavy jobs genuinely cost what their
   loop size says. *)
let sched_skew_curve (ctx : Context.t) =
  Context.section "Scheduling skew — work-conserving shard scheduler";
  let arch = ctx.Context.arch in
  let synth name size =
    let ins = Arch.find_instruction arch "fadd" in
    let s = Synthesizer.create ~name arch in
    Synthesizer.add_pass s (Passes.skeleton ~size);
    Synthesizer.add_pass s (Passes.fill_sequence [ ins ]);
    Synthesizer.add_pass s (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed:11 s
  in
  let heavy = synth "skew-heavy" (if ctx.Context.quick then 400 else 600) in
  let lights =
    List.init 6 (fun i -> synth (Printf.sprintf "skew-light-%d" i) (40 + i))
  in
  let heavy_configs =
    List.map
      (fun (cores, smt) -> Context.config ctx ~cores ~smt)
      [ (8, 4); (4, 4); (2, 4); (8, 2); (4, 2); (2, 2) ]
  in
  let light_config = Context.config ctx ~cores:1 ~smt:1 in
  let jobs =
    List.map (fun c -> (c, heavy)) heavy_configs
    @ List.map (fun p -> (light_config, p)) lights
  in
  let slots = 3 in
  let heavy_slot = Shard_exec.shard_index ~shards:slots [ heavy ] in
  let light_spread =
    List.exists
      (fun p -> Shard_exec.shard_index ~shards:slots [ p ] <> heavy_slot)
      lights
  in
  Context.log
    "%d jobs: %d heavy (one program x %d configurations, all on slot %d)\n\
     + %d light; 2 proc workers + 1 loopback TCP worker, 1 domain each"
    (List.length jobs) (List.length heavy_configs) (List.length heavy_configs)
    heavy_slot (List.length lights);
  let machine = Machine.create ~cache:false ~replay:false arch.Arch.uarch in
  (* a widened dense window makes each heavy job cost tens of
     milliseconds, so the skew dominates per-chunk framing overhead
     and the lap times scheduling, not Marshal *)
  let measure = 24 in
  let reference =
    Machine.run_batch ~measure ~period:false ~procs:0 machine jobs
  in
  (* speculation off for the timed laps: the section times
     work-conserving dispatch, and tail re-dispatch would leave
     duplicate frames to drain at batch end — timer noise, and covered
     by its own test *)
  let speculate0 =
    match Sys.getenv_opt "MP_SPECULATE" with Some s -> s | None -> ""
  in
  Unix.putenv "MP_SPECULATE" "off";
  let port = free_port () in
  let pid =
    Shard_exec.spawn_worker ~env:[ ("MP_POOL_SIZE", "1") ] ~port ()
  in
  let rec0 = Machine.jobs_recovered () in
  let sent0 = Mp_util.Workerpool.frames_sent () in
  let t_dynamic =
    Fun.protect
      ~finally:(fun () ->
        Unix.putenv "MP_SPECULATE" speculate0;
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid))
      (fun () ->
        let sp =
          Shard_exec.create_pool
            ~env:[ ("MP_POOL_SIZE", "1") ]
            ~hosts:[ ("127.0.0.1", port) ]
            2
        in
        Fun.protect
          ~finally:(fun () -> Shard_exec.shutdown_pool sp)
          (fun () ->
            let lap () =
              let t0 = Unix.gettimeofday () in
              let r =
                Machine.run_batch ~measure ~period:false ~shard_pool:sp
                  machine jobs
              in
              (r, Unix.gettimeofday () -. t0)
            in
            (* prime lap: spawns/connects the workers and warms their
               machines outside the timed window *)
            let prime, _ = lap () in
            let r_dynamic, t_dynamic = lap () in
            if compare reference prime <> 0 || compare reference r_dynamic <> 0
            then
              failwith
                "sched skew: sharded results diverge from in-process execution";
            t_dynamic))
  in
  let recovered = Machine.jobs_recovered () - rec0 in
  let dispatched = Mp_util.Workerpool.frames_sent () > sent0 in
  (* "genuinely fanned out": frames actually crossed process
     boundaries, nothing had to be recovered, the injected skew really
     was one-sided (heavy on one slot, light work elsewhere), and the
     runner has a second core to schedule onto *)
  let fanned =
    dispatched && recovered = 0 && light_spread
    && Mp_util.Parallel.detected_cores () >= 2
  in
  Context.record_metric ctx "sched_skew_dynamic_seconds" t_dynamic;
  Context.record_metric ctx "sched_skew_fanned_out" (if fanned then 1. else 0.);
  Context.record_metric ctx "sched_skew_jobs_recovered_delta"
    (float_of_int recovered);
  Context.log
    "sharded %.2fs; %d jobs recovered;\n\
     all laps bit-identical to in-process execution"
    t_dynamic recovered;
  if not fanned then
    Context.log "not fanned out (%s)"
      (if not dispatched then "dispatch stayed in-process"
       else if recovered > 0 then "jobs were recovered mid-lap"
       else if not light_spread then "skew collapsed onto one slot"
       else "single detected core");
  (List.length jobs, t_dynamic, fanned)

let scaling_curve (ctx : Context.t) =
  Context.section "Worker scaling curve — one batch, pools of 1/2/4/8";
  let arch = ctx.Context.arch in
  let n_programs, jobs =
    bench_jobs ctx
      ~skip:(if ctx.Context.quick then 4 else 2)
      [ Context.config ctx ~cores:1 ~smt:2; Context.config ctx ~cores:4 ~smt:2 ]
  in
  Context.log "%d jobs (%d programs x 2 configurations), %d detected cores"
    (List.length jobs) n_programs
    (Mp_util.Parallel.detected_cores ());
  (* one machine for every pool size: cache and replay off, so each lap
     re-simulates the whole batch and the curve times pure engine work *)
  let machine = Machine.create ~cache:false ~replay:false arch.Arch.uarch in
  let entries =
    List.map
      (fun w ->
        let pool = Mp_util.Parallel.create w in
        (* prime lap: warms this pool's domains (and, on the first
           iteration, the process) outside the timed window *)
        let reference, _ = lap machine pool jobs in
        let r, dt = lap machine pool jobs in
        Mp_util.Parallel.shutdown pool;
        if compare reference r <> 0 then
          failwith
            (Printf.sprintf
               "scaling curve: results at %d workers diverge between laps" w);
        (w, r, dt))
      scaling_workers
  in
  (match entries with
   | (_, reference, _) :: rest ->
     List.iter
       (fun (w, r, _) ->
         if compare reference r <> 0 then
           failwith
             (Printf.sprintf
                "scaling curve: results at %d workers diverge from the \
                 1-worker reference" w))
       rest
   | [] -> ());
  let t1 =
    match entries with (_, _, t) :: _ -> t | [] -> Float.nan
  in
  let curve =
    List.map (fun (w, _, t) -> (w, t, t1 /. Float.max t 1e-9)) entries
  in
  List.iter
    (fun (w, t, s) ->
      Context.record_metric ctx
        (Printf.sprintf "scaling_w%d_seconds" w) t;
      Context.record_metric ctx
        (Printf.sprintf "scaling_w%d_speedup" w) s;
      Context.log "%d worker%s: %.2fs (%.2fx vs 1 worker)" w
        (if w = 1 then "" else "s") t s)
    curve;
  let procpool = procpool_curve ctx machine jobs in
  let netpool = netpool_curve ctx machine jobs in
  let sched_skew = sched_skew_curve ctx in
  write_scaling_json ~quick:ctx.Context.quick ~jobs:(List.length jobs)
    ~procpool ~netpool ~sched_skew ~stride:ctx.Context.membench_stride curve

(* ----- parbench ---------------------------------------------------------- *)

let run (ctx : Context.t) =
  period_bench ctx;
  Context.section "Parallel engine — pooled run_batch vs serial";
  let arch = ctx.Context.arch in
  let pool = ctx.Context.pool in
  let n_programs, jobs =
    bench_jobs ctx ~skip:2
      [ Context.config ctx ~cores:1 ~smt:1;
        Context.config ctx ~cores:4 ~smt:2;
        Context.config ctx ~cores:8 ~smt:4 ]
  in
  Context.log "%d jobs (%d programs x 3 configurations), pool of %d domains"
    (List.length jobs) n_programs (Mp_util.Parallel.size pool);
  (* Like-for-like: both sides get a fresh machine with the measurement
     cache and the replay table off (every lap simulates), and both
     sides run a prime lap before the timed laps, so neither side pays
     first-touch costs inside its timed window. Full mode times two
     laps per side and keeps the minimum. *)
  let timed_laps = if ctx.Context.quick then 1 else 2 in
  let side pool =
    let machine = Machine.create ~cache:false ~replay:false arch.Arch.uarch in
    let r, _ = lap machine pool jobs in
    let best = ref Float.infinity in
    for _ = 1 to timed_laps do
      let r', dt = lap machine pool jobs in
      if compare r r' <> 0 then
        failwith "parbench: a machine's laps diverge from each other";
      best := Float.min !best dt
    done;
    (r, !best)
  in
  let serial_pool = Mp_util.Parallel.create 1 in
  let serial, t_serial = side serial_pool in
  Mp_util.Parallel.shutdown serial_pool;
  let steals0 = Mp_util.Parallel.steal_count pool in
  let par0 = Mp_util.Parallel.parallel_batches pool in
  let par, t_par = side pool in
  let steals = Mp_util.Parallel.steal_count pool - steals0 in
  let fanned_out = Mp_util.Parallel.parallel_batches pool > par0 in
  let identical = List.for_all2 (fun a b -> compare a b = 0) serial par in
  if not identical then
    failwith "parbench: pooled results diverge from the serial run";
  let speedup = t_serial /. Float.max t_par 1e-9 in
  Context.record_metric ctx "parbench_jobs" (float_of_int (List.length jobs));
  Context.record_metric ctx "parbench_serial_seconds" t_serial;
  Context.record_metric ctx "parbench_parallel_seconds" t_par;
  Context.record_metric ctx "parbench_speedup" speedup;
  Context.record_metric ctx "parbench_steals" (float_of_int steals);
  Context.record_metric ctx "parbench_pool_mode" (if fanned_out then 1. else 0.);
  Context.log
    "serial %.2fs, pooled %.2fs -> %.2fx speedup (%s, %d jobs stolen\n\
     across workers); results bit-identical"
    t_serial t_par speedup
    (if fanned_out then "fanned out" else "adaptive serial fallback")
    steals;
  (* The CI invariant from the adaptive fan-out work: a batch the pool
     chose to fan out must not lose to serial — below 1.0x the fan-out
     predicate or the scheduler has regressed. When the pool declined
     to fan out (size-1 pool, or a batch below the width threshold)
     both sides ran the same code and only timer noise separates them,
     so the floor is slightly below parity. An explicit MP_POOL_SIZE
     past the core count is the documented escape hatch for
     benchmarking the oversubscribed case — there a sub-1x result is
     the finding, not a regression, so the gate stands down. *)
  let oversubscribed =
    Mp_util.Parallel.size pool > Mp_util.Parallel.detected_cores ()
  in
  if oversubscribed then
    Context.log
      "pool of %d on %d detected cores (explicit oversubscription) — \
       speedup gate skipped"
      (Mp_util.Parallel.size pool)
      (Mp_util.Parallel.detected_cores ())
  else begin
    let floor = if fanned_out then 1.0 else 0.9 in
    if speedup < floor then
      failwith
        (Printf.sprintf
           "parbench: pooled batch only %.2fx vs serial (floor %.1fx, %s)"
           speedup floor
           (if fanned_out then "fanned out" else "serial fallback"))
  end;
  (* memoization: the same batch again on a caching machine — the warm
     pass must also match the serial reference bit for bit. Replay is
     off so the cold pass genuinely simulates and the phase times the
     measurement-cache path in isolation. *)
  let memo_machine = Machine.create ~replay:false arch.Arch.uarch in
  let t0 = Unix.gettimeofday () in
  ignore (Machine.run_batch ~pool memo_machine jobs);
  let t_cold = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  let warm = Machine.run_batch ~pool memo_machine jobs in
  let t_warm = Unix.gettimeofday () -. t0 in
  if not (List.for_all2 (fun a b -> compare a b = 0) serial warm) then
    failwith "parbench: cached results diverge from the serial run";
  let memo_speedup = t_cold /. Float.max t_warm 1e-9 in
  Context.record_metric ctx "parbench_memo_cold_seconds" t_cold;
  Context.record_metric ctx "parbench_memo_warm_seconds" t_warm;
  Context.record_metric ctx "parbench_memo_speedup" memo_speedup;
  (* disk hits on the "cold" pass mean a previous harness invocation of
     this same build already simulated these points *)
  let disk_hits =
    match Machine.measurement_cache memo_machine with
    | None -> 0
    | Some c ->
      let s = Measurement_cache.stats c in
      Context.record_metric ctx "parbench_disk_hits"
        (float_of_int s.Measurement_cache.disk_hits);
      if s.Measurement_cache.disk_hits > 0 then
        Context.log "%d of the cold-pass lookups were served from the disk cache"
          s.Measurement_cache.disk_hits;
      s.Measurement_cache.disk_hits
  in
  (* The warm pass does no simulation — only key derivation and table
     lookups — so it must be decisively faster than the cold pass. A
     floor of 1.5x catches a key path regressing into per-lookup
     serialisation. When the cold pass itself was served from a warm
     disk cache (a previous run of this build), both sides skip
     simulation and only a regression below parity is meaningful. *)
  let memo_floor = if disk_hits > 0 then 1.0 else 1.5 in
  if memo_speedup < memo_floor then
    failwith
      (Printf.sprintf
         "parbench: warm memoized batch only %.2fx faster than cold \
          (floor %.1fx) — the cache lookup path has regressed"
         memo_speedup memo_floor);
  Context.log
    "memoized rerun: cold %.2fs, warm %.3fs -> %.0fx; cached results\n\
     bit-identical to serial"
    t_cold t_warm memo_speedup;
  scaling_curve ctx

(* ----- steady-state replay ----------------------------------------------- *)

(* Repeated-measurement amortisation: the workload every DSE loop,
   bootstrap round and GA generation produces — the same structural
   programs measured again and again — run on a replay-enabled machine
   against a replay-off control. Both machines have the measurement
   cache off, so the off side re-simulates every lap while the on side
   simulates once and replays from the captured steady-state records
   afterwards. A final lap widens the measurement window to twice the
   default, exercising the closed-form window extrapolation (the
   bootstrap measures at that window, so this is the production case,
   not a synthetic one). Results are compared bit for bit on every
   lap; zero replay hits or a speedup below the floor fail the run —
   and CI with it. *)
let replay_bench (ctx : Context.t) =
  Context.section "Steady-state replay — repeated measurements vs dense";
  let arch = ctx.Context.arch in
  let pool = ctx.Context.pool in
  let n_programs, jobs =
    bench_jobs ctx ~skip:2
      [ Context.config ctx ~cores:1 ~smt:1;
        Context.config ctx ~cores:4 ~smt:2 ]
  in
  let reps = if ctx.Context.quick then 4 else 6 in
  Context.log "%d jobs (%d programs x 2 configurations), %d repetitions"
    (List.length jobs) n_programs reps;
  let off_machine =
    Machine.create ~cache:false ~replay:false arch.Arch.uarch
  in
  let on_machine = Machine.create ~cache:false arch.Arch.uarch in
  let hits0 = Replay.hits () in
  let misses0 = Replay.misses () in
  let t_off = ref 0.0 and t_on = ref 0.0 in
  let reference = ref None in
  (* interleaved off/on laps, so allocator and cache warmth drift
     over the run is shared evenly between the two sides *)
  for _ = 1 to reps do
    let off, dt_off = lap off_machine pool jobs in
    t_off := !t_off +. dt_off;
    let on, dt_on = lap on_machine pool jobs in
    t_on := !t_on +. dt_on;
    (match !reference with
     | None -> reference := Some off
     | Some r ->
       if compare r off <> 0 then
         failwith "replay bench: dense laps diverge from each other");
    if compare off on <> 0 then
      failwith
        "replay bench: replayed results diverge from dense simulation"
  done;
  (* the widened-window lap: measure = 16 is twice the default 8 and
     is the Epi.Bootstrap window, so the on side must serve it by
     period extrapolation from records captured at the default *)
  let wide machine =
    let t0 = Unix.gettimeofday () in
    let r =
      List.map (fun (c, p) -> Machine.run ~measure:16 machine c p) jobs
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let wide_off, dt_off = wide off_machine in
  t_off := !t_off +. dt_off;
  let wide_on, dt_on = wide on_machine in
  t_on := !t_on +. dt_on;
  if compare wide_off wide_on <> 0 then
    failwith
      "replay bench: widened-window replay diverges from dense simulation";
  let hits = Replay.hits () - hits0 in
  let misses = Replay.misses () - misses0 in
  if hits = 0 then
    failwith
      "replay bench: zero replay hits on a repeated-measurement workload \
       — the replay table has regressed into silent dense simulation";
  let speedup = !t_off /. Float.max !t_on 1e-9 in
  Context.record_metric ctx "replay_bench_jobs"
    (float_of_int (List.length jobs));
  Context.record_metric ctx "replay_bench_reps" (float_of_int reps);
  Context.record_metric ctx "replay_bench_off_seconds" !t_off;
  Context.record_metric ctx "replay_bench_on_seconds" !t_on;
  Context.record_metric ctx "replay_bench_speedup" speedup;
  Context.record_metric ctx "replay_bench_hits" (float_of_int hits);
  Context.record_metric ctx "replay_bench_misses" (float_of_int misses);
  Context.log
    "replay off %.2fs, replay on %.2fs -> %.2fx speedup; %d replay hits,\n\
     %d misses; all %d laps plus the widened window bit-identical"
    !t_off !t_on speedup hits misses (reps + 1);
  (* the acceptance target is >= 2x on this workload; the CI floor
     sits at 1.5x so timer noise on a loaded runner doesn't flake the
     gate while a real regression (replay silently disabled, a key
     component accidentally including the window) still fails *)
  if speedup < 1.5 then
    failwith
      (Printf.sprintf
         "replay bench: only %.2fx vs dense re-simulation (floor 1.5x) — \
          steady-state replay has regressed"
         speedup);
  if speedup < 2.0 then
    Context.log
      "note: below the 2.0x acceptance target (runner noise?) — floor 1.5x \
       held"
