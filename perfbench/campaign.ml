(* One benchmark campaign, run once in a fresh process.

   Usage: campaign.exe WORKLOAD SEED TRACE

   WORKLOAD is [power_projection] (paper query (a): train the bottom-up
   model, project SPEC surrogates, report PAAE) or [epi_survey] (paper
   query (b): bootstrap the ISA at five core counts, build Table 3).
   The warm re-run is [power_projection] pointed at a primed
   MP_CACHE_DIR, so it needs no mode of its own. SEED goes to
   [Machine.create ~seed]. TRACE 1 adds phase timers, per-layer counter
   deltas and, after the timed campaign, a single-domain probe that
   re-runs a fixed sample of the campaign's own jobs through each
   simulator layer.

   The last line of stdout is one JSON object; perfbench/run.py spawns
   this program once per repetition and aggregates the repetitions. *)

open Microprobe
module Pool = Mp_util.Parallel

let now = Unix.gettimeofday

(* ----- tracing: phase timers, off unless TRACE is 1 ------------------- *)

let tracing = ref false

(* Phase timers, reported as shares of the campaign's wall time: a
   phase a workload does not run then reads 0%, not a constant time.
   [machine.batch] times every call that is one machine batch, inside
   whichever phase, and is reported in seconds. *)
let batch = "machine.batch"

let timers =
  List.map
    (fun k -> (k, ref 0.0))
    [ "training.suite"; "training.measure"; "power_model.fit"; "spec.project";
      "epi.bootstrap"; batch ]

let timed name f =
  if not !tracing then f ()
  else begin
    let t0 = now () in
    let r = f () in
    let acc = List.assoc name timers in
    acc := !acc +. (now () -. t0);
    r
  end

(* ----- engine counters, read before and after the campaign ------------ *)

(* Every counter here is process-wide or per-machine and monotone, so a
   campaign's share is an after-minus-before delta. Allocation comes
   from [Gc.quick_stat], which sums all domains; [Gc.minor_words] only
   sees the calling domain and would miss the pool's work. *)
let counters machine pool =
  let cs =
    match Machine.measurement_cache machine with
    | Some c -> Measurement_cache.stats c
    | None -> { Measurement_cache.hits = 0; misses = 0; disk_hits = 0 }
  in
  let dups = Machine.batch_dup_collapsed () in
  let gc = Gc.quick_stat () in
  let f = float_of_int in
  [ ("machine.jobs", f (cs.Measurement_cache.hits + cs.Measurement_cache.misses + dups));
    ("machine.batches", f (Pool.parallel_batches pool + Pool.serial_fallbacks pool));
    ("machine.dup_collapsed", f dups);
    ("measurement_cache.hits", f cs.Measurement_cache.hits);
    ("measurement_cache.misses", f cs.Measurement_cache.misses);
    ("measurement_cache.disk_hits", f cs.Measurement_cache.disk_hits);
    ("measurement_cache.key_s", Measurement_cache.key_seconds ());
    ("replay.hits", f (Replay.hits ()));
    ("replay.misses", f (Replay.misses ()));
    ("core_sim.period_hits", f (Core_sim.period_hits ()));
    ("core_sim.cycles_skipped", f (Core_sim.cycles_skipped ()));
    ("parallel.steals", f (Pool.steal_count pool));
    ("parallel.parallel_batches", f (Pool.parallel_batches pool));
    ("parallel.serial_fallbacks", f (Pool.serial_fallbacks pool));
    ("gc.minor_mwords", gc.Gc.minor_words /. 1e6);
    ("gc.major_collections", f gc.Gc.major_collections) ]

let delta before after =
  List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after

(* ----- correctness digest --------------------------------------------- *)

(* Every returned measurement and science figure is folded in bit for
   bit, so the digest changes if any counter, power sample or derived
   number moves. *)
let add_float b x = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x))

let add_string b s =
  Buffer.add_string b s;
  Buffer.add_char b ';'

let add_measurement b (m : Measurement.t) =
  let c = m.Measurement.config in
  add_string b
    (Printf.sprintf "%s@%d/%d" m.Measurement.program c.Uarch_def.cores c.Uarch_def.smt);
  Array.iter
    (fun (t : Measurement.counters) ->
      List.iter (add_float b)
        [ t.Measurement.cycles; t.instrs; t.dispatched; t.fxu; t.lsu; t.vsu;
          t.bru; t.st; t.l1; t.l2; t.l3; t.mem ])
    m.Measurement.threads;
  add_float b m.Measurement.core_ipc;
  add_float b m.Measurement.power;
  Array.iter (add_float b) m.Measurement.power_trace

let demand_loads ms =
  List.fold_left
    (fun acc (m : Measurement.t) ->
      Array.fold_left
        (fun acc (t : Measurement.counters) ->
          acc +. t.Measurement.l1 +. t.Measurement.l2 +. t.Measurement.l3
          +. t.Measurement.mem)
        acc m.Measurement.threads)
    0.0 ms

(* ----- the campaigns --------------------------------------------------- *)

type outcome = {
  paae_pct : float;
  digest : Buffer.t -> unit;
      (* folds the campaign's results into the correctness digest; run
         after the wall clock stops *)
  jobs : (Uarch_def.config * Ir.t) list Lazy.t;
      (* the campaign's own measurement jobs, in submission order: the probe
         samples them *)
  returned : unit -> Measurement.t list;
      (* raw (unphased) measurements, for demand-load counts; traced
         runs only *)
}

let every k l = List.filteri (fun i _ -> i mod k = 0) l

let grid configs programs =
  List.concat_map (fun c -> List.map (fun p -> (c, p)) programs) configs

(* Paper query (a), the bench harness's fig5b path: Table-2 suite,
   bottom-up training data at 1c-SMT1, 1c-SMT2/4 and the random set on
   every configuration, then SPEC projection at three configurations. *)
let power_projection ~arch ~machine ~pool =
  let cfg cores smt = Uarch_def.config ~cores ~smt arch.Arch.uarch in
  let families =
    timed "training.suite" (fun () ->
        Workloads.Training.table2 ~machine ~arch ~quick:true ())
  in
  let programs_of fams =
    List.map
      (fun (e : Workloads.Training.entry) -> e.Workloads.Training.program)
      (Workloads.Training.all_entries fams)
  in
  let programs = programs_of families in
  let random =
    every 3
      (programs_of
         (List.filter
            (fun (f : Workloads.Training.family) ->
              f.Workloads.Training.family_name = "Random")
            families))
  in
  let measure jobs =
    timed batch (fun () -> Machine.run_batch ~pool machine jobs)
  in
  let j_smt1 = grid [ cfg 1 1 ] programs in
  let j_smt_on = grid [ cfg 1 2; cfg 1 4 ] (every 2 programs) in
  let j_multi = grid (Uarch_def.all_configs arch.Arch.uarch) random in
  let smt1, smt_on, multi =
    timed "training.measure" (fun () ->
        let a = measure j_smt1 in
        let b = measure j_smt_on in
        let c = measure j_multi in
        (a, b, c))
  in
  let baseline = Machine.baseline_reading machine in
  let bu =
    timed "power_model.fit" (fun () ->
        Power_model.Bottom_up.train ~baseline ~smt1 ~smt_on ~multi ())
  in
  let suite = Workloads.Spec.suite ~arch () in
  let spec_configs = [ cfg 1 1; cfg 4 2; cfg 8 4 ] in
  let spec =
    timed "spec.project" (fun () ->
        List.map
          (fun c ->
            ( c,
              List.map
                (fun b ->
                  timed batch (fun () ->
                      Workloads.Spec.run ~machine ~config:c ~pool b))
                suite ))
          spec_configs)
  in
  let predict = Power_model.Bottom_up.predict bu in
  let spec_all = List.concat_map snd spec in
  let paae = Power_model.Validation.paae ~predict spec_all in
  let digest b =
    List.iter
      (fun (e : Workloads.Training.entry) ->
        add_string b e.Workloads.Training.program.Ir.name;
        add_float b e.Workloads.Training.achieved_ipc)
      (Workloads.Training.all_entries families);
    List.iter (add_measurement b) (smt1 @ smt_on @ multi @ spec_all);
    List.iter (fun m -> add_float b (predict m)) spec_all;
    List.iter
      (fun (_, ms) -> add_float b (Power_model.Validation.paae ~predict ms))
      spec;
    add_float b paae
  in
  let spec_jobs =
    lazy
      (List.concat_map
         (fun c ->
           List.concat_map
             (fun (bm : Workloads.Spec.benchmark) ->
               List.map (fun (p, _) -> (c, p)) bm.Workloads.Spec.phases)
             suite)
         spec_configs)
  in
  { paae_pct = paae;
    digest;
    jobs = lazy (j_smt1 @ j_smt_on @ j_multi @ Lazy.force spec_jobs);
    returned = (fun () -> smt1 @ smt_on @ multi) }

(* The bootstrap's kernels, rebuilt through the public codegen API
   exactly as [Epi.Bootstrap] builds them (same passes, names and
   seeds), so the probe can re-run the survey's own jobs. *)
let bootstrap_size = 512

let bootstrap_measure = 2 * Machine.default_measure

let bootstrappable (i : Instruction.t) =
  (not i.Instruction.privileged)
  && (not (Instruction.is_branch i))
  && (not i.Instruction.prefetch)
  && i.Instruction.exec_class <> Instruction.Nop_op

let bootstrap_kernel ~arch ~deps (ins : Instruction.t) =
  let name =
    Printf.sprintf "boot-%s-%s" ins.Instruction.mnemonic
      (if deps then "dep" else "nodep")
  in
  let synth = Synthesizer.create ~name arch in
  Synthesizer.add_pass synth (Passes.skeleton ~size:bootstrap_size);
  Synthesizer.add_pass synth (Passes.fill_sequence [ ins ]);
  if Instruction.is_memory ins && not ins.Instruction.prefetch then
    Synthesizer.add_pass synth
      (Passes.memory_model [ (Cache_geometry.L1, 1.0) ]);
  Synthesizer.add_pass synth
    (Passes.dependency (if deps then Builder.Fixed 1 else Builder.No_deps));
  Synthesizer.add_pass synth (Passes.init_registers Builder.Random_values);
  Synthesizer.add_pass synth (Passes.init_immediates Builder.Random_values);
  Synthesizer.add_pass synth (Passes.rename name);
  Synthesizer.synthesize ~seed:(Hashtbl.hash name) synth

(* SMT1 only: at SMT >= 2 the bootstrap livelocks on dadd (see
   perfbench/NOTES.md). *)
let epi_configs = [ (8, 1); (1, 1); (2, 1); (4, 1); (6, 1) ]

(* Paper query (b): one [Bootstrap.run] per configuration over the whole
   ISA, then Table 3 from the 8-core survey. The science figure is the
   error of the derived latencies and throughputs against the
   micro-architecture definition. It depends on counters only: an
   EPI-based error would be dominated by the one noisy idle reading per
   configuration that every EPI subtracts, and so by the seed. *)
let epi_survey ~arch ~machine ~pool =
  let cfg (cores, smt) = Uarch_def.config ~cores ~smt arch.Arch.uarch in
  let surveys =
    List.map
      (fun c ->
        let c = cfg c in
        ( c,
          timed "epi.bootstrap" (fun () ->
              timed batch (fun () ->
                  Epi.Bootstrap.run ~machine ~arch ~config:c
                    ~size:bootstrap_size ~pool ())) ))
      epi_configs
  in
  let at cores =
    snd
      (List.find
         (fun ((c : Uarch_def.config), _) -> c.Uarch_def.cores = cores)
         surveys)
  in
  let rows =
    Epi.Taxonomy.table3 (Epi.Taxonomy.categorize ~isa:arch.Arch.isa (at 8))
  in
  let uarch = arch.Arch.uarch in
  let reference = ref [] and derived = ref [] in
  let compare ref_v v =
    if ref_v > 0.0 && Float.is_finite ref_v then begin
      reference := ref_v :: !reference;
      derived := v :: !derived
    end
  in
  List.iter
    (fun (_, props) ->
      List.iter
        (fun (p : Epi.Bootstrap.props) ->
          let ins = Arch.find_instruction arch p.Epi.Bootstrap.mnemonic in
          compare
            (float_of_int (uarch.Uarch_def.resources ins).Uarch_def.latency)
            p.Epi.Bootstrap.derived_latency;
          compare (Uarch_def.peak_ipc uarch ins) p.Epi.Bootstrap.throughput)
        props)
    surveys;
  let paae =
    Mp_util.Stats.paae ~actual:(Array.of_list !reference)
      ~predicted:(Array.of_list !derived)
  in
  let digest b =
    List.iter
      (fun ((c : Uarch_def.config), props) ->
        add_string b (Uarch_def.config_to_string c);
        List.iter
          (fun (p : Epi.Bootstrap.props) ->
            add_string b p.Epi.Bootstrap.mnemonic;
            List.iter (add_float b)
              [ p.Epi.Bootstrap.derived_latency; p.Epi.Bootstrap.throughput;
                p.Epi.Bootstrap.core_ipc; p.Epi.Bootstrap.epi ];
            List.iter
              (fun (u, r) ->
                add_string b (Pipe.unit_to_string u);
                add_float b r)
              p.Epi.Bootstrap.events_per_instr;
            List.iter
              (fun u -> add_string b (Pipe.unit_to_string u))
              p.Epi.Bootstrap.units)
          props)
      surveys;
    List.iter
      (fun (r : Epi.Taxonomy.row) ->
        add_string b r.Epi.Taxonomy.category;
        add_string b r.Epi.Taxonomy.mnemonic;
        List.iter (add_float b)
          [ r.Epi.Taxonomy.core_ipc; r.Epi.Taxonomy.epi_global;
            r.Epi.Taxonomy.epi_category; r.Epi.Taxonomy.ipc_epi_product ])
      rows;
    add_float b paae
  in
  let jobs =
    lazy
      (let instrs = Arch.select arch bootstrappable in
       List.concat_map
         (fun (c, _) ->
           List.concat_map
             (fun ins ->
               [ (c, bootstrap_kernel ~arch ~deps:false ins);
                 (c, bootstrap_kernel ~arch ~deps:true ins) ])
             instrs)
         surveys)
  in
  (* [Bootstrap.run] returns properties only, so the kernels are
     measured again; each must hit the memory cache, which checks the
     rebuilt copy against the bootstrap's own kernels *)
  let returned () =
    let misses () =
      match Machine.measurement_cache machine with
      | Some c -> (Measurement_cache.stats c).Measurement_cache.misses
      | None -> 0
    in
    let m0 = misses () in
    let ms =
      Machine.run_batch ~measure:bootstrap_measure ~pool machine
        (Lazy.force jobs)
    in
    if misses () <> m0 then
      failwith
        (Printf.sprintf "bootstrap kernel copy missed the cache %d times"
           (misses () - m0));
    ms
  in
  { paae_pct = paae; digest; jobs; returned }

(* ----- the single-domain probe ----------------------------------------- *)

(* Runs after the timed campaign, on the main domain with the pool idle,
   so its times and allocation counts belong to one layer each. Each
   section is bracketed by [Gc.minor] so [Gc.quick_stat] counts every
   word the section allocated, exactly. *)
let measured f =
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = now () in
  let r = f () in
  let t = now () -. t0 in
  Gc.minor ();
  let w = (Gc.quick_stat ()).Gc.minor_words -. w0 in
  (r, t, w)

(* Spread a fixed number of picks evenly over a list. *)
let sample n l =
  let len = List.length l in
  if len <= n then l
  else List.filteri (fun i _ -> i * n / len <> (i + 1) * n / len) l

let probe_jobs = 12

let probe_iters = 50

(* [Machine]'s deployment, rebuilt from the public API: per-thread
   address streams honouring the SMT partition. *)
let deploy ~uarch ~opmap ~seed (config : Uarch_def.config) (p : Ir.t) =
  let rng =
    Mp_util.Rng.create
      (Hashtbl.hash (seed, p.Ir.name, config.Uarch_def.cores, config.Uarch_def.smt))
  in
  let streams_of tid =
    match p.Ir.memory_distribution with
    | None -> [||]
    | Some distribution ->
      let plan =
        Set_assoc_model.create ~uarch ~partition:(tid, config.Uarch_def.smt)
          ~distribution ()
      in
      let targeted =
        List.filter (fun (i : Ir.instr) -> i.Ir.mem_target <> None)
          (Ir.memory_instructions p)
      in
      let targets =
        Array.of_list
          (List.map (fun (i : Ir.instr) -> Option.get i.Ir.mem_target) targeted)
      in
      let s = Set_assoc_model.coordinated_streams plan rng ~targets in
      Array.of_list
        (List.mapi
           (fun k (i : Ir.instr) ->
             (i.Ir.index, s.(k).Set_assoc_model.addresses))
           targeted)
  in
  Array.init config.Uarch_def.smt (fun tid ->
      let streams = streams_of tid in
      let dp =
        Core_sim.deploy ~uarch ~opmap
          ~streams:(fun idx -> List.assoc idx (Array.to_list streams))
          p
      in
      (dp, Array.map snd streams))

let probe ~arch ~seed ~dir (jobs : (Uarch_def.config * Ir.t) list) =
  let uarch = arch.Arch.uarch in
  let opmap = Core_sim.opmap_create () in
  let mem, compute = List.partition (fun (_, p) -> Ir.has_memory p) jobs in
  let jobs = sample probe_jobs compute @ sample probe_jobs mem in
  let deployed =
    List.map
      (fun (c, p) ->
        let d = deploy ~uarch ~opmap ~seed c p in
        (c, p, Array.map fst d, Array.concat (Array.to_list (Array.map snd d))))
      jobs
  in
  (* Core_sim, dense: every simulated cycle is a measured one *)
  let dense, sim_t, sim_w =
    measured (fun () ->
        List.map
          (fun (c, p, dps, _) ->
            ( c, p, dps,
              Core_sim.run ~uarch ~opmap ~warmup:0
                ~measure:Machine.default_measure ~period:false dps ))
          deployed)
  in
  let cycles =
    List.fold_left
      (fun acc (_, _, _, a) -> acc + a.Core_sim.measured_cycles)
      0 dense
  in
  (* Cache_sim alone, on the sampled jobs' own address streams *)
  let streams =
    List.concat_map (fun (_, _, _, s) -> Array.to_list s) deployed
    |> List.filter (fun s -> Array.length s > 0)
    |> Array.of_list
  in
  let accesses = 200_000 in
  let (), cache_t, cache_w =
    if streams = [||] then ((), 0.0, 0.0)
    else
      measured (fun () ->
          let cache = Cache_sim.create uarch in
          let n = Array.length streams in
          for i = 0 to accesses - 1 do
            let s = streams.(i mod n) in
            let a = s.((i / n) mod Array.length s) in
            ignore (Cache_sim.access cache ~addr:a ~store:false)
          done)
  in
  (* Power_sim on the dense activities *)
  let table = Mp_sim.Energy_table.power7 in
  let readings, power_t, _ =
    measured (fun () ->
        let last = ref [] in
        for k = 1 to probe_iters do
          last :=
            List.map
              (fun (c, _, _, activity) ->
                let rng = Mp_util.Rng.create k in
                Mp_sim.Power_sim.sample ~table ~rng ~config:c ~opmap ~activity ())
              dense
        done;
        !last)
  in
  let samples = probe_iters * List.length dense in
  (* Replay: record each job's period, then time the lookups *)
  let fp = Measurement_cache.uarch_fingerprint uarch in
  let replay = Replay.create () in
  let keyed =
    List.map
      (fun (c, (p : Ir.t), dps, _) ->
        let salt = if Ir.has_memory p then Some p.Ir.name else None in
        let key =
          Replay.key ~uarch:fp ~smt:c.Uarch_def.smt ~warmup:1
            ~mem_latency:uarch.Uarch_def.mem_latency ?salt
            (Array.make c.Uarch_def.smt p)
        in
        let activity, pd =
          Core_sim.run_ex ~uarch ~opmap ~warmup:1
            ~measure:Machine.default_measure dps
        in
        Replay.record replay ~opmap ~measure:Machine.default_measure key
          activity pd;
        (Ir.data_activity_factor p, key))
      dense
  in
  let replay_hits, replay_t, _ =
    measured (fun () ->
        let hits = ref 0 in
        for _ = 1 to probe_iters do
          List.iter
            (fun (daf, key) ->
              match
                Replay.find replay ~opmap ~daf ~warmup:1
                  ~measure:Machine.default_measure key
              with
              | Some _ -> incr hits
              | None -> ())
            keyed
        done;
        !hits)
  in
  (* Measurement_cache: write each result to a fresh disk store, then
     read it back through a second, empty table *)
  let entries =
    List.map2
      (fun (c, (p : Ir.t), _, activity) (r : Mp_sim.Power_sim.reading) ->
        ( Measurement_cache.key ~uarch:fp ~seed ~config:c ~warmup:0
            ~measure:Machine.default_measure ~name:p.Ir.name [| p |],
          { Measurement.config = c;
            program = p.Ir.name;
            threads = activity.Core_sim.threads;
            core_ipc = 0.0;
            power = r.Mp_sim.Power_sim.sensor_mean;
            power_trace = r.Mp_sim.Power_sim.trace } ))
      dense readings
  in
  let disk = { Measurement_cache.dir; namespace = Measurement_cache.namespace () } in
  let writer = Measurement_cache.create ~disk () in
  let (), add_t, _ =
    measured (fun () ->
        List.iter (fun (k, m) -> Measurement_cache.add writer k m) entries)
  in
  let reader = Measurement_cache.create ~disk () in
  let (), find_t, _ =
    measured (fun () ->
        List.iter
          (fun (k, _) -> ignore (Measurement_cache.find reader k))
          entries)
  in
  let disk_found = (Measurement_cache.stats reader).Measurement_cache.disk_hits in
  (* codegen: pure generation calls *)
  let n_programs, gen_t, gen_w =
    measured (fun () ->
        let suite = Workloads.Spec.suite ~arch () in
        let isa = Arch.select arch bootstrappable in
        let seqs =
          List.init 8 (fun k ->
              List.filteri (fun i _ -> i mod 8 = k) isa |> sample 6)
        in
        let marks =
          List.mapi
            (fun k s ->
              Stressmark.program_of_sequence ~arch
                ~name:(Printf.sprintf "probe-%d" k) s)
            seqs
        in
        List.fold_left
          (fun acc (b : Workloads.Spec.benchmark) ->
            acc + List.length b.Workloads.Spec.phases)
          (List.length marks) suite)
  in
  let f = float_of_int in
  let n = f (List.length entries) in
  [ ("core_sim.ns_per_cycle", sim_t *. 1e9 /. f cycles);
    ("core_sim.minor_words_per_cycle", sim_w /. f cycles);
    ("core_sim.probe_cycles", f cycles);
    ("cache_sim.ns_per_access", cache_t *. 1e9 /. f accesses);
    ("cache_sim.minor_words_per_access", cache_w /. f accesses);
    ("power_sim.us_per_sample", power_t *. 1e6 /. f samples);
    ("replay.find_us", replay_t *. 1e6 /. f (probe_iters * List.length keyed));
    ("replay.probe_hits", f replay_hits);
    ("measurement_cache.add_us", add_t *. 1e6 /. n);
    ("measurement_cache.disk_find_us", find_t *. 1e6 /. n);
    ("measurement_cache.probe_disk_hits", f disk_found);
    ("codegen.us_per_program", gen_t *. 1e6 /. f n_programs);
    ("codegen.minor_words_per_program", gen_w /. f n_programs) ]

(* ----- main -------------------------------------------------------------- *)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The engine reads its settings into module-level lazy values on first
   use, and OCaml 5 raises [CamlinternalLazy.Undefined] when two domains
   force one lazy value at once. The pool's domains do that on the first
   batch: one epi_survey campaign in about thirty died of it. Forcing
   them here, on one domain, is part of set-up; the fix belongs in
   lib/sim (see NOTES.md). *)
let settle_engine arch =
  let uarch = arch.Arch.uarch in
  let p =
    Stressmark.program_of_sequence ~arch ~size:8 ~name:"settle"
      [ Arch.find_instruction arch "add" ]
  in
  ignore (Measurement_cache.namespace ());
  ignore
    (Measurement_cache.key ~config:(Uarch_def.config ~cores:1 ~smt:1 uarch)
       ~warmup:0 ~measure:1 ~name:p.Ir.name [| p |]);
  let opmap = Core_sim.opmap_create () in
  let dp = Core_sim.deploy ~uarch ~opmap ~streams:(fun _ -> [||]) p in
  ignore (Core_sim.run ~uarch ~opmap ~warmup:0 ~measure:1 [| dp |])

let json_num x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let () =
  let workload, seed, trace =
    match Sys.argv with
    | [| _; w; s; t |] -> (w, int_of_string s, t = "1")
    | _ ->
      prerr_endline "usage: campaign.exe WORKLOAD SEED TRACE";
      exit 2
  in
  tracing := trace;
  let arch = get_architecture "POWER7" in
  let machine = Machine.create ~seed arch.Arch.uarch in
  let pool = Pool.global () in
  settle_engine arch;
  let t_ready = now () in
  let run =
    match workload with
    | "power_projection" -> power_projection
    | "epi_survey" -> epi_survey
    | "setup" ->
      (* set up and stop: the benchmark samples setup_s several times *)
      Pool.shutdown_global ();
      Printf.printf "{\"t_ready\": %.6f}\n" t_ready;
      exit 0
    | w ->
      prerr_endline ("campaign.exe: unknown workload " ^ w);
      exit 2
  in
  let before = counters machine pool in
  let o = run ~arch ~machine ~pool in
  let wall_s = now () -. t_ready in
  let digest =
    let b = Buffer.create 65536 in
    o.digest b;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  let cpu = cpu_s () and rss = vm_hwm_mb () in
  let layer = delta before (counters machine pool) in
  let jobs = List.assoc "machine.jobs" layer in
  let layers =
    if not trace then []
    else begin
      let demand = demand_loads (o.returned ()) in
      let dir = Filename.concat (Sys.getenv "MP_CACHE_DIR") "probe" in
      let probed = probe ~arch ~seed ~dir (Lazy.force o.jobs) in
      List.map
        (fun (k, r) ->
          if k = batch then (k ^ "_s", !r) else (k ^ "_pct", 100.0 *. !r /. wall_s))
        timers
      @ [ ("cache_sim.demand_loads", demand) ]
      @ layer @ probed
    end
  in
  Pool.shutdown_global ();
  let fields =
    [ ("t_ready", Printf.sprintf "%.6f" t_ready);
      ("wall_s", json_num wall_s);
      ("cpu_s", json_num cpu);
      ("peak_rss_mb", json_num rss);
      ("jobs", json_num jobs);
      ("sims", json_num (List.assoc "measurement_cache.misses" layer));
      ("paae_pct", json_num o.paae_pct);
      ("digest", Printf.sprintf "%S" digest);
      ( "layers",
        "{"
        ^ String.concat ", "
            (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (json_num v)) layers)
        ^ "}" ) ]
  in
  print_endline
    ("{"
    ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) fields)
    ^ "}")
