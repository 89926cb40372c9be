(* The reproduction harness: regenerates every table and figure of the
   paper's evaluation (Tables 2-3, Figures 3, 5a, 5b, 6, 7, 8, 9), then
   times the framework's kernels with Bechamel.

   Usage:
     dune exec bench/main.exe                 # everything, full scale
     dune exec bench/main.exe -- --quick      # reduced sweeps (~4x faster)
     dune exec bench/main.exe -- table3 fig9  # selected experiments *)

let experiments : (string * string * (Context.t -> unit)) list =
  [
    ("table2", "Training micro-benchmark suite", Exp_tables.table2);
    ("table3", "EPI-based instruction taxonomy", Exp_tables.table3);
    ("fig3", "Analytical cache model validation", Exp_tables.fig3);
    ("fig5a", "SPEC power tracking with breakdown (4c-SMT4)", Exp_model.fig5a);
    ("fig5b", "Bottom-up model PAAE per configuration", Exp_model.fig5b);
    ("fig6", "Bottom-up vs top-down models", Exp_model.fig6);
    ("fig7", "Extreme activity cases", Exp_model.fig7);
    ("fig8", "Power breakdown per configuration", Exp_model.fig8);
    ("fig9", "Max-power stressmark sets", Exp_stressmark.fig9);
    ("order", "Instruction-order power experiment", Exp_stressmark.order_experiment);
    ("hetero", "Heterogeneous per-thread stressmarks", Exp_stressmark.heterogeneous);
    ("ga", "GA stressmark search (batched, memoized)", Exp_stressmark.ga);
    ("membench", "Packed vs list cache model on dense memory kernels",
     Exp_membench.run);
    ("parbench", "Parallel engine speedup vs serial", Exp_parallel.run);
    ("replay", "Steady-state replay vs dense re-simulation", Exp_parallel.replay_bench);
    ("ablation", "Design-choice ablations", Exp_ablation.run);
    ("bechamel", "Kernel timings", Bechamel_suite.run);
  ]

(* hand-rolled JSON writer — the harness has no JSON dependency and the
   shape is flat enough not to want one *)
let write_bench_json ~path ~quick ~total (ctx : Context.t) timings =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  let json_f v =
    if Float.is_nan v then "null" else Printf.sprintf "%.6f" v
  in
  out "{\n";
  out "  \"mode\": %S,\n" (if quick then "quick" else "full");
  out "  \"pool_size\": %d,\n" (Mp_util.Parallel.size ctx.Context.pool);
  out "  \"total_seconds\": %s,\n" (json_f total);
  out "  \"experiments\": [\n";
  List.iteri
    (fun i (name, seconds) ->
      out "    { \"name\": %S, \"seconds\": %s }%s\n" name (json_f seconds)
        (if i = List.length timings - 1 then "" else ","))
    timings;
  out "  ],\n";
  (* per-slot scheduling telemetry: where dynamically-scheduled chunks
     actually ran, how often speculation fired, and each slot's busy
     fraction — labels are strings, so this is its own array section
     rather than a flat metric *)
  out "  \"shard_slot_stats\": [\n";
  let slot_stats = Microprobe.Shard_exec.slot_stats () in
  List.iteri
    (fun i (label, (s : Microprobe.Shard_exec.slot_stat)) ->
      let busy_frac =
        if s.Microprobe.Shard_exec.sl_wall_s > 0.0 then
          s.Microprobe.Shard_exec.sl_busy_s
          /. s.Microprobe.Shard_exec.sl_wall_s
        else Float.nan
      in
      out
        "    { \"slot\": %S, \"jobs\": %d, \"chunks\": %d, \"speculated\": \
         %d, \"cancelled\": %d, \"busy_s\": %s, \"busy_fraction\": %s }%s\n"
        label s.Microprobe.Shard_exec.sl_jobs
        s.Microprobe.Shard_exec.sl_chunks
        s.Microprobe.Shard_exec.sl_speculated
        s.Microprobe.Shard_exec.sl_cancelled
        (json_f s.Microprobe.Shard_exec.sl_busy_s)
        (json_f busy_frac)
        (if i = List.length slot_stats - 1 then "" else ","))
    slot_stats;
  out "  ],\n";
  out "  \"metrics\": {\n";
  let metrics = Context.metrics ctx in
  List.iteri
    (fun i (name, v) ->
      out "    %S: %s%s\n" name (json_f v)
        (if i = List.length metrics - 1 then "" else ","))
    metrics;
  out "  }\n";
  out "}\n";
  close_out oc;
  Printf.printf "Wrote %s\n" path

(* Streamed progress: one JSON object per line, appended as each
   experiment finishes, so a long (or killed) run leaves a readable
   partial record next to the final aggregate. *)
let partial_path = "BENCH_sim.json.partial"

let stream_partial ~quick name seconds =
  try
    let oc =
      open_out_gen [ Open_append; Open_creat ] 0o644 partial_path
    in
    Printf.fprintf oc
      "{ \"mode\": %S, \"experiment\": %S, \"seconds\": %s }\n"
      (if quick then "quick" else "full")
      name
      (if Float.is_nan seconds then "null" else Printf.sprintf "%.6f" seconds);
    close_out oc
  with _ -> ()

let usage () =
  print_endline "usage: main.exe [--quick] [experiment ...]";
  print_endline "experiments:";
  List.iter
    (fun (name, descr, _) -> Printf.printf "  %-10s %s\n" name descr)
    experiments

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--help" args then usage ()
  else begin
    let quick = List.mem "--quick" args in
    let selected =
      List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
    in
    let to_run =
      match selected with
      | [] -> experiments
      | names ->
        List.filter_map
          (fun n ->
            match
              List.find_opt (fun (name, _, _) -> name = n) experiments
            with
            | Some e -> Some e
            | None ->
              Printf.eprintf "unknown experiment %S (try --help)\n" n;
              exit 2)
          names
    in
    Printf.printf
      "MicroProbe reproduction harness (%s mode)\n\
       Paper: Bertran et al., 'Systematic Energy Characterization of\n\
       CMP/SMT Processor Systems via Automated Micro-Benchmarks', MICRO 2012\n"
      (if quick then "quick" else "full");
    let ctx = Context.create ~quick in
    (try Sys.remove partial_path with _ -> ());
    let t0 = Unix.gettimeofday () in
    let timings =
      List.map
        (fun (name, _, f) ->
          let e0 = Unix.gettimeofday () in
          f ctx;
          let dt = Unix.gettimeofday () -. e0 in
          stream_partial ~quick name dt;
          (name, dt))
        to_run
    in
    let total = Unix.gettimeofday () -. t0 in
    Printf.printf "\nTotal harness time: %.1fs\n" total;
    (* engine metrics: always emitted, even when a selected-experiment
       or quick run records nothing else *)
    Context.record_metric ctx "pool_size"
      (float_of_int (Mp_util.Parallel.size ctx.Context.pool));
    (* an explicit MP_POOL_SIZE pin is honoured verbatim, anything else
       is the detected core count — recording both makes an
       oversubscribed pool visible in the artifact *)
    Context.record_metric ctx "pool_size_effective"
      (float_of_int (Mp_util.Parallel.default_size ()));
    Context.record_metric ctx "detected_cores"
      (float_of_int (Mp_util.Parallel.detected_cores ()));
    Context.record_metric ctx "occ_denominator"
      (float_of_int ctx.Context.arch.Microprobe.Arch.uarch.Mp_uarch.Uarch_def.occ_den);
    Context.record_metric ctx "pool_steals"
      (float_of_int (Mp_util.Parallel.steal_count ctx.Context.pool));
    Context.record_metric ctx "period_hits"
      (float_of_int (Microprobe.Core_sim.period_hits ()));
    Context.record_metric ctx "cycles_skipped"
      (float_of_int (Microprobe.Core_sim.cycles_skipped ()));
    (* steady-state replay: measurements served from captured period
       records instead of dense simulation *)
    Context.record_metric ctx "replay_hits"
      (float_of_int (Microprobe.Replay.hits ()));
    Context.record_metric ctx "replay_misses"
      (float_of_int (Microprobe.Replay.misses ()));
    (let h = Microprobe.Replay.hits () and m = Microprobe.Replay.misses () in
     Context.record_metric ctx "replay_hit_rate"
       (if h + m = 0 then Float.nan
        else float_of_int h /. float_of_int (h + m)));
    (* adaptive fan-out telemetry: how often the shared pool chose to
       parallelise a batch vs run it sequentially in the caller *)
    Context.record_metric ctx "pool_parallel_batches"
      (float_of_int (Mp_util.Parallel.parallel_batches ctx.Context.pool));
    Context.record_metric ctx "pool_serial_fallbacks"
      (float_of_int (Mp_util.Parallel.serial_fallbacks ctx.Context.pool));
    (* cumulative time deriving cache keys: the structural fold keeps
       this in the noise *)
    Context.record_metric ctx "key_digest_seconds"
      (Microprobe.Measurement_cache.key_seconds ());
    (* process-level sharding telemetry: the MP_PROCS knob as resolved,
       the shared pool's local and remote slots, frames and bytes over
       every worker slot (subprocess or TCP peer), and the
       crash-recovery counters — respawns plus reconnects, and jobs
       re-run in-process (both zero in a healthy run) *)
    Context.record_metric ctx "procs_requested"
      (float_of_int (Microprobe.Shard_exec.env_procs ()));
    Context.record_metric ctx "procs_effective"
      (float_of_int (Microprobe.Shard_exec.global_size ()));
    Context.record_metric ctx "worker_reopens"
      (float_of_int (Mp_util.Workerpool.reopen_count ()));
    Context.record_metric ctx "jobs_recovered"
      (float_of_int (Microprobe.Machine.jobs_recovered ()));
    Context.record_metric ctx "frames_sent"
      (float_of_int (Mp_util.Workerpool.frames_sent ()));
    Context.record_metric ctx "frames_received"
      (float_of_int (Mp_util.Workerpool.frames_received ()));
    Context.record_metric ctx "worker_bytes"
      (float_of_int (Mp_util.Workerpool.bytes_transferred ()));
    Context.record_metric ctx "hosts_effective"
      (float_of_int (Microprobe.Shard_exec.global_remote_size ()));
    (* shard scheduling: duplicate chunk copies dispatched to idle
       slots, and completions discarded because a sibling's copy won
       (both zero under MP_SPECULATE=off) *)
    Context.record_metric ctx "chunks_speculated"
      (float_of_int (Microprobe.Shard_exec.chunks_speculated ()));
    Context.record_metric ctx "chunks_cancelled"
      (float_of_int (Microprobe.Shard_exec.chunks_cancelled ()));
    (* how sharded the on-disk replay store ended up — the same figure
       `mp-cache stat --json` reports *)
    (let dir =
       match Microprobe.Measurement_cache.env_disk () with
       | Some d -> d.Microprobe.Measurement_cache.dir
       | None -> "_mp_cache"
     in
     let rdir = Microprobe.Measurement_cache.replay_dir dir in
     Context.record_metric ctx "replay_store_shards"
       (if Sys.file_exists rdir then
          float_of_int
            (Microprobe.Measurement_cache.disk_stats rdir)
              .Microprobe.Measurement_cache.ds_shards
        else 0.0));
    (* duplicate points collapsed before simulation, at both layers:
       Machine.run_batch within-batch dedup and Driver.eval_list keyed
       dedup *)
    Context.record_metric ctx "batch_dup_collapsed"
      (float_of_int
         (Microprobe.Machine.batch_dup_collapsed ()
         + Microprobe.Dse.Driver.dup_collapsed ()));
    (match Microprobe.Machine.measurement_cache ctx.Context.machine with
     | None -> ()
     | Some c ->
       let s = Microprobe.Measurement_cache.stats c in
       Context.record_metric ctx "cache_hits"
         (float_of_int s.Microprobe.Measurement_cache.hits);
       Context.record_metric ctx "cache_misses"
         (float_of_int s.Microprobe.Measurement_cache.misses);
       Context.record_metric ctx "cache_disk_hits"
         (float_of_int s.Microprobe.Measurement_cache.disk_hits);
       Context.record_metric ctx "cache_hit_rate"
         (Microprobe.Measurement_cache.hit_rate c));
    write_bench_json ~path:"BENCH_sim.json" ~quick ~total ctx timings;
    (* join worker domains and shard subprocesses deterministically on
       the normal exit path (the at_exit hooks cover abnormal ones) *)
    Microprobe.Shard_exec.shutdown_global ();
    Mp_util.Parallel.shutdown_global ()
  end
