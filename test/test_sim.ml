(* Tests for mp_sim: the cache simulator, the scoreboard core model and
   the measurement harness. Steady-state IPCs are checked against the
   values the POWER7 definition was calibrated to (paper Table 3). *)

open Mp_codegen
open Mp_sim

let arch () = Arch.power7 ()

let l1 = [ (Mp_uarch.Cache_geometry.L1, 1.0) ]

let mono a ?(size = 512) ?(dep = Builder.No_deps) ?mem_mix mnemonic =
  let ins = Arch.find_instruction a mnemonic in
  let synth = Synthesizer.create ~name:("t-" ^ mnemonic) a in
  Synthesizer.add_pass synth (Passes.skeleton ~size);
  Synthesizer.add_pass synth (Passes.fill_sequence [ ins ]);
  if Mp_isa.Instruction.is_memory ins then
    Synthesizer.add_pass synth
      (Passes.memory_model (Option.value ~default:l1 mem_mix));
  Synthesizer.add_pass synth (Passes.dependency dep);
  Synthesizer.synthesize ~seed:77 synth

let config a ~cores ~smt = Mp_uarch.Uarch_def.config ~cores ~smt a.Arch.uarch

(* ----- cache simulator ------------------------------------------------------ *)

let test_cache_hit_after_fill () =
  let a = arch () in
  let c = Cache_sim.create a.Arch.uarch in
  let addr = 0x10000 in
  Alcotest.(check bool) "first access misses to MEM" true
    (Cache_sim.access c ~addr ~store:false = Mp_uarch.Cache_geometry.MEM);
  Alcotest.(check bool) "second access hits L1" true
    (Cache_sim.access c ~addr ~store:false = Mp_uarch.Cache_geometry.L1)

let test_cache_lru_eviction () =
  let a = arch () in
  let u = a.Arch.uarch in
  let c = Cache_sim.create u in
  let l1g = Mp_uarch.Uarch_def.cache u Mp_uarch.Cache_geometry.L1 in
  let ways = l1g.Mp_uarch.Cache_geometry.associativity in
  (* fill one L1 set beyond capacity; lines land in the same L2 set's
     siblings so they stay L2-resident *)
  let addr i = Mp_uarch.Cache_geometry.address_with_set l1g ~set:3 ~tag:i in
  for i = 0 to ways do
    ignore (Cache_sim.access c ~addr:(addr i) ~store:false)
  done;
  (* line 0 was least recently used: it must have been evicted from L1 *)
  Alcotest.(check bool) "evicted to L2" true
    (Cache_sim.access c ~addr:(addr 0) ~store:false <> Mp_uarch.Cache_geometry.L1)

let test_cache_counters () =
  let a = arch () in
  let c = Cache_sim.create a.Arch.uarch in
  ignore (Cache_sim.access c ~addr:0 ~store:false);
  ignore (Cache_sim.access c ~addr:0 ~store:false);
  Alcotest.(check int) "one MEM source" 1 (Cache_sim.hits c Mp_uarch.Cache_geometry.MEM);
  Alcotest.(check int) "one L1 hit" 1 (Cache_sim.hits c Mp_uarch.Cache_geometry.L1);
  Cache_sim.reset_stats c;
  Alcotest.(check int) "reset" 0 (Cache_sim.hits c Mp_uarch.Cache_geometry.L1);
  Alcotest.(check bool) "contents survive reset" true
    (Cache_sim.access c ~addr:0 ~store:false = Mp_uarch.Cache_geometry.L1)

let test_prefetcher_detects_streams () =
  let a = arch () in
  let c = Cache_sim.create a.Arch.uarch in
  for i = 0 to 15 do
    ignore (Cache_sim.access c ~addr:(i * 128) ~store:false)
  done;
  Alcotest.(check bool) "prefetches issued on sequential walk" true
    (Cache_sim.prefetches_issued c > 0)

(* ----- core model: steady-state IPC ---------------------------------------- *)

let run_ipc a p ~smt =
  let machine = Machine.create a.Arch.uarch in
  (Machine.run machine (config a ~cores:8 ~smt) p).Measurement.core_ipc

let check_ipc name expected mnemonic =
  let a = arch () in
  let ipc = run_ipc a (mono a mnemonic) ~smt:1 in
  Alcotest.(check (float 0.06)) name expected ipc

let test_ipc_simple_int () = check_ipc "add 3.5" 3.53 "add"
let test_ipc_fxu () = check_ipc "subf 2.0" 2.0 "subf"
let test_ipc_mul () = check_ipc "mulldo 1.4" 1.4 "mulldo"
let test_ipc_load () = check_ipc "lbz 1.68" 1.68 "lbz"
let test_ipc_load_update () = check_ipc "ldux 1.0" 1.0 "ldux"
let test_ipc_vsu () = check_ipc "xvmaddadp 2.0" 2.0 "xvmaddadp"
let test_ipc_vec_store () = check_ipc "stxvw4x 0.48" 0.48 "stxvw4x"

let test_dependency_chain_limits_ipc () =
  let a = arch () in
  let free = run_ipc a (mono a "fadd") ~smt:1 in
  let chained = run_ipc a (mono a ~dep:(Builder.Fixed 1) "fadd") ~smt:1 in
  Alcotest.(check bool) "chain is slower" true (chained < free /. 2.0);
  (* fadd latency is 6: a single chain sustains ~1/6 IPC *)
  Alcotest.(check (float 0.05)) "1/latency" (1.0 /. 6.0) chained

let test_dependency_distance_parallelism () =
  let a = arch () in
  let d2 = run_ipc a (mono a ~dep:(Builder.Fixed 2) "fadd") ~smt:1 in
  let d4 = run_ipc a (mono a ~dep:(Builder.Fixed 4) "fadd") ~smt:1 in
  Alcotest.(check bool) "more chains, more ILP" true (d4 > d2 +. 0.1)

let test_smt_increases_core_throughput () =
  let a = arch () in
  let p = mono a "subf" in
  let smt1 = run_ipc a p ~smt:1 in
  let smt2 = run_ipc a p ~smt:2 in
  (* one thread of subf already saturates both FXU pipes: SMT must not
     reduce throughput, and per-thread share must drop *)
  Alcotest.(check bool) "core throughput preserved" true (smt2 >= smt1 -. 0.1)

let test_smt_helps_latency_bound () =
  let a = arch () in
  let p = mono a ~dep:(Builder.Fixed 1) "fadd" in
  let smt1 = run_ipc a p ~smt:1 in
  let smt4 = run_ipc a p ~smt:4 in
  (* chains from different threads overlap: core IPC scales *)
  Alcotest.(check bool) "smt hides chain latency" true (smt4 > 3.0 *. smt1)

let test_memory_latency_lowers_ipc () =
  let a = arch () in
  let l1_ipc = run_ipc a (mono a ~dep:(Builder.Fixed 1) "ld") ~smt:1 in
  let mem_ipc =
    run_ipc a
      (mono a ~dep:(Builder.Fixed 1)
         ~mem_mix:[ (Mp_uarch.Cache_geometry.MEM, 1.0) ] "ld")
      ~smt:1
  in
  Alcotest.(check bool) "pointer chase to MEM is much slower" true
    (mem_ipc < l1_ipc /. 10.0)

(* ----- measurements ----------------------------------------------------------- *)

let test_counters_consistent () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a "add" in
  let m = Machine.run machine (config a ~cores:1 ~smt:1) p in
  let c = Measurement.core_counters m in
  (* [Machine.default_measure] measured iterations of a 512-instruction
     body + bdnz; the window boundaries land at dispatch crossings, so
     the issue count can be off by up to one in-flight window on either
     side *)
  let iters = float_of_int Machine.default_measure in
  Alcotest.(check bool) "instructions" true
    (Float.abs (c.Measurement.instrs -. (iters *. 513.0)) <= 64.0);
  (* simple int ops issue to FXU and LSU pipes; together they cover all
     payload instructions *)
  let units = c.Measurement.fxu +. c.Measurement.lsu in
  Alcotest.(check bool) "unit events" true
    (Float.abs (units -. (iters *. 512.0)) <= 64.0);
  Alcotest.(check bool) "branches" true
    (c.Measurement.bru >= iters && c.Measurement.bru <= iters +. 1.0)

let test_memory_counters () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p =
    mono a
      ~mem_mix:[ (Mp_uarch.Cache_geometry.L1, 0.5); (Mp_uarch.Cache_geometry.L2, 0.5) ]
      "lbz"
  in
  let m = Machine.run machine (config a ~cores:1 ~smt:1) p in
  let c = Measurement.core_counters m in
  let total = c.Measurement.l1 +. c.Measurement.l2 +. c.Measurement.l3 +. c.Measurement.mem in
  Alcotest.(check bool) "loads counted" true (total > 1000.0);
  Alcotest.(check (float 0.06)) "half L1" 0.5 (c.Measurement.l1 /. total);
  Alcotest.(check (float 0.06)) "half L2" 0.5 (c.Measurement.l2 /. total)

let test_pmc_read_interface () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let m = Machine.run machine (config a ~cores:1 ~smt:1) (mono a "add") in
  let c = Measurement.core_counters m in
  Alcotest.(check (float 1e-9)) "PM_INST_CMPL" c.Measurement.instrs
    (Measurement.read c Mp_uarch.Pmc.PM_INST_CMPL);
  Alcotest.(check (float 1e-9)) "PM_RUN_CYC" c.Measurement.cycles
    (Measurement.read c Mp_uarch.Pmc.PM_RUN_CYC)

let test_measurement_determinism () =
  let a = arch () in
  let machine = Machine.create ~seed:5 a.Arch.uarch in
  let p = mono a "mulld" in
  let m1 = Machine.run machine (config a ~cores:2 ~smt:2) p in
  let m2 = Machine.run machine (config a ~cores:2 ~smt:2) p in
  Alcotest.(check (float 1e-9)) "same power" m1.Measurement.power m2.Measurement.power;
  Alcotest.(check (float 1e-9)) "same ipc" m1.Measurement.core_ipc m2.Measurement.core_ipc

let test_power_orderings () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let cfg = config a ~cores:8 ~smt:1 in
  let idle = Machine.idle_reading machine cfg in
  let loaded = (Machine.run machine cfg (mono a "xvmaddadp")).Measurement.power in
  Alcotest.(check bool) "loaded > idle" true (loaded > idle +. 1.0);
  let idle1 = Machine.idle_reading machine (config a ~cores:1 ~smt:1) in
  Alcotest.(check bool) "idle grows with cores" true (idle > idle1);
  Alcotest.(check bool) "baseline below idle" true
    (Machine.baseline_reading machine < idle1)

let test_power_scales_with_cores () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a "add" in
  let p1 = (Machine.run machine (config a ~cores:1 ~smt:1) p).Measurement.power in
  let p8 = (Machine.run machine (config a ~cores:8 ~smt:1) p).Measurement.power in
  Alcotest.(check bool) "8 cores draw much more" true (p8 > p1 +. 15.0)

let test_smt_power_overhead () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  (* a latency-bound loop leaves pipes idle: SMT2 adds both activity
     and the SMT-logic overhead *)
  let p = mono a ~dep:(Builder.Fixed 1) "mulld" in
  let p1 = (Machine.run machine (config a ~cores:4 ~smt:1) p).Measurement.power in
  let p2 = (Machine.run machine (config a ~cores:4 ~smt:2) p).Measurement.power in
  Alcotest.(check bool) "smt2 draws more" true (p2 > p1)

let test_zero_data_reduces_power () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let build policy =
    let synth = Synthesizer.create ~name:"dataswitch" a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:512);
    Synthesizer.add_pass synth (Passes.fill_sequence [ Arch.find_instruction a "xvmaddadp" ]);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.add_pass synth (Passes.init_registers policy);
    Synthesizer.add_pass synth (Passes.init_immediates policy);
    Synthesizer.synthesize ~seed:21 synth
  in
  let cfg = config a ~cores:8 ~smt:1 in
  let random = (Machine.run machine cfg (build Builder.Random_values)).Measurement.power in
  let zero = (Machine.run machine cfg (build (Builder.Constant 0L))).Measurement.power in
  Alcotest.(check bool) "zero data draws less" true (zero < random -. 1.0)

let test_bandwidth_contention () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a ~mem_mix:[ (Mp_uarch.Cache_geometry.MEM, 1.0) ] "ld" in
  let one = (Machine.run machine (config a ~cores:1 ~smt:1) p).Measurement.core_ipc in
  let eight = (Machine.run machine (config a ~cores:8 ~smt:1) p).Measurement.core_ipc in
  Alcotest.(check bool) "8 cores share the memory bandwidth" true
    (eight < one *. 0.7)

let test_run_phases () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let cfg = config a ~cores:1 ~smt:1 in
  let hot = mono a "xvmaddadp" and cold = mono a ~dep:(Builder.Fixed 1) "fdiv" in
  let ph = Machine.run_phases machine cfg [ (hot, 1.0); (cold, 1.0) ] in
  let mh = Machine.run machine cfg hot and mc = Machine.run machine cfg cold in
  Alcotest.(check (float 0.5)) "power is the weighted mean"
    ((mh.Measurement.power +. mc.Measurement.power) /. 2.0)
    ph.Measurement.power;
  Alcotest.(check bool) "trace concatenates phases" true
    (Array.length ph.Measurement.power_trace > 4)

let test_heterogeneous_validation () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a "add" in
  Alcotest.(check bool) "program count must equal SMT" true
    (try
       ignore (Machine.run_heterogeneous machine (config a ~cores:1 ~smt:2) [ p ]);
       false
     with Invalid_argument _ -> true)

let test_heterogeneous_mix () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let compute = mono a "xvmaddadp" in
  let memory =
    mono a ~mem_mix:[ (Mp_uarch.Cache_geometry.MEM, 1.0) ] "ld"
  in
  let cfg2 = config a ~cores:1 ~smt:2 in
  let both = Machine.run_heterogeneous machine cfg2 [ compute; memory ] in
  (* the compute thread must stay in steady state for the whole window:
     its per-thread IPC should be close to its homogeneous SMT1 rate *)
  let homog = Machine.run machine (config a ~cores:1 ~smt:1) compute in
  let compute_ipc = Measurement.ipc both.Measurement.threads.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "compute thread unstarved (%.2f vs %.2f)" compute_ipc
       homog.Measurement.core_ipc)
    true
    (compute_ipc > 0.8 *. homog.Measurement.core_ipc);
  (* the memory thread's counters show main-memory activity *)
  let memc = both.Measurement.threads.(1) in
  Alcotest.(check bool) "memory thread touches MEM" true
    (memc.Measurement.mem > 10.0);
  (* and the mixed pair draws more power than the compute pair alone *)
  let compute_pair = Machine.run machine cfg2 compute in
  Alcotest.(check bool) "distinct from homogeneous" true
    (Float.abs (both.Measurement.power -. compute_pair.Measurement.power) > 0.2)

let test_heterogeneous_determinism () =
  let a = arch () in
  let machine = Machine.create ~seed:11 a.Arch.uarch in
  let p1 = mono a "add" and p2 = mono a "mulld" in
  let cfg2 = config a ~cores:2 ~smt:2 in
  let m1 = Machine.run_heterogeneous machine cfg2 [ p1; p2 ] in
  let m2 = Machine.run_heterogeneous machine cfg2 [ p1; p2 ] in
  Alcotest.(check (float 1e-9)) "same power" m1.Measurement.power
    m2.Measurement.power

let test_smt_fairness () =
  (* two identical threads contending for the same pipes must receive
     comparable shares — the issue arbitration rotates *)
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a "subf" in
  let m = Machine.run machine (config a ~cores:1 ~smt:2) p in
  let i0 = Measurement.ipc m.Measurement.threads.(0) in
  let i1 = Measurement.ipc m.Measurement.threads.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "fair shares (%.2f vs %.2f)" i0 i1)
    true
    (Float.abs (i0 -. i1) < 0.2 *. Float.max i0 i1)

let test_phases_validation () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  Alcotest.(check bool) "empty phases rejected" true
    (try ignore (Machine.run_phases machine (config a ~cores:1 ~smt:1) []); false
     with Invalid_argument _ -> true)

(* ----- measurement arithmetic ------------------------------------------ *)

let test_counter_arithmetic () =
  let c1 =
    { Measurement.zero_counters with
      Measurement.cycles = 100.0; instrs = 50.0; fxu = 10.0 }
  in
  let c2 =
    { Measurement.zero_counters with
      Measurement.cycles = 80.0; instrs = 30.0; fxu = 5.0 }
  in
  let s = Measurement.add_counters c1 c2 in
  Alcotest.(check (float 1e-9)) "instrs add" 80.0 s.Measurement.instrs;
  Alcotest.(check (float 1e-9)) "cycles take max" 100.0 s.Measurement.cycles;
  let k = Measurement.scale_counters 2.0 c1 in
  Alcotest.(check (float 1e-9)) "scaled" 20.0 k.Measurement.fxu;
  Alcotest.(check (float 1e-9)) "ipc" 0.5 (Measurement.ipc c1);
  Alcotest.(check (float 1e-9)) "rate" 0.1 (Measurement.rate c1 c1.Measurement.fxu)

let test_power_trace_properties () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let m = Machine.run machine (config a ~cores:4 ~smt:2) (mono a "fmadd") in
  Alcotest.(check bool) "trace has samples" true
    (Array.length m.Measurement.power_trace >= 16);
  let mean = Mp_util.Stats.mean m.Measurement.power_trace in
  Alcotest.(check bool) "sensor mean equals reported power" true
    (Float.abs (mean -. m.Measurement.power) < 1e-9);
  let _, hi = Mp_util.Stats.min_max m.Measurement.power_trace in
  Alcotest.(check bool) "noise is small" true
    (hi < m.Measurement.power *. 1.05)

let test_total_threads () =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let m = Machine.run machine (config a ~cores:4 ~smt:2) (mono a "add") in
  Alcotest.(check int) "4 cores x smt2" 8 (Measurement.total_threads m)

let test_seed_changes_sensor () =
  (* a memory kernel consumes the machine seed (address-stream
     synthesis), so its sensor noise must differ between seeds *)
  let a = arch () in
  let p = mono a "lbz" in
  let c = config a ~cores:2 ~smt:1 in
  let m1 = Machine.run (Machine.create ~seed:1 a.Arch.uarch) c p in
  let m2 = Machine.run (Machine.create ~seed:2 a.Arch.uarch) c p in
  Alcotest.(check bool) "different sensor noise" true
    (m1.Measurement.power <> m2.Measurement.power);
  Alcotest.(check bool) "but close" true
    (Float.abs (m1.Measurement.power -. m2.Measurement.power)
     < 0.05 *. m1.Measurement.power)

let test_seed_independent_identical () =
  (* a pure compute kernel built only from seed-independent passes
     draws nothing from the machine seed — not even sensor noise, which
     switches to the canonical rng so warm caches can be shared across
     seeds. Measurements must be bit-identical between machines. *)
  let a = arch () in
  let p = mono a "mulld" in
  let c = config a ~cores:2 ~smt:1 in
  let m1 = Machine.run (Machine.create ~cache:false ~seed:1 a.Arch.uarch) c p in
  let m2 = Machine.run (Machine.create ~cache:false ~seed:2 a.Arch.uarch) c p in
  Alcotest.(check bool) "bit-identical across machine seeds" true
    (compare m1 m2 = 0)

(* ----- heterogeneous batch -------------------------------------------------- *)

let test_hetero_batch_matches_serial () =
  let a = arch () in
  let c = config a ~cores:2 ~smt:2 in
  let p1 = mono a "mulld" and p2 = mono a "lbz" in
  let jobs = [ (c, [ p1; p2 ]); (c, [ p2; p1 ]); (c, [ p1; p1 ]) ] in
  let serial_machine = Machine.create ~cache:false a.Arch.uarch in
  let serial =
    List.map
      (fun (c, ps) -> Machine.run_heterogeneous serial_machine c ps)
      jobs
  in
  let batch_machine = Machine.create ~cache:false a.Arch.uarch in
  let pool = Mp_util.Parallel.create 4 in
  let batch = Machine.run_heterogeneous_batch ~pool batch_machine jobs in
  Mp_util.Parallel.shutdown pool;
  List.iter2
    (fun (s : Measurement.t) (b : Measurement.t) ->
      Alcotest.(check bool)
        (s.Measurement.program ^ " hetero batch bit-identical")
        true
        (compare s b = 0))
    serial batch

(* ----- disk-persistent measurement cache ------------------------------------ *)

let with_cache_dir dir f =
  Unix.putenv "MP_CACHE_DIR" dir;
  Fun.protect ~finally:(fun () -> Unix.putenv "MP_CACHE_DIR" "_mp_cache") f

let fresh_dir = Tmp_dir.fresh ~prefix:"mp_cache_test"

let cache_stats machine =
  match Machine.measurement_cache machine with
  | Some c -> Measurement_cache.stats c
  | None -> Alcotest.fail "expected a measurement cache"

let test_disk_cache_roundtrip () =
  with_cache_dir (fresh_dir "rt") (fun () ->
      let a = arch () in
      let p = mono a "mulld" in
      let other = mono a "lbz" in
      let c = config a ~cores:2 ~smt:1 in
      (* reference value, no caching at all *)
      let m0 = Machine.create ~cache:false a.Arch.uarch in
      let r0 = Machine.run m0 c p in
      (* m1 interns [other] first, so its intern-table history differs
         from a machine that only ever saw [p] — the disk entry it
         writes must be bit-identical anyway *)
      let m1 = Machine.create a.Arch.uarch in
      ignore (Machine.run m1 c other);
      let r1 = Machine.run m1 c p in
      Alcotest.(check bool) "writer matches reference" true
        (compare r0 r1 = 0);
      let dir = Sys.getenv "MP_CACHE_DIR" in
      Alcotest.(check bool) "cache dir populated" true
        (Sys.file_exists dir && Array.length (Sys.readdir dir) > 0);
      (* a fresh machine with a different intern history: in-memory
         cold, disk warm *)
      let m2 = Machine.create a.Arch.uarch in
      let r2 = Machine.run m2 c p in
      Alcotest.(check bool) "disk-served result bit-identical" true
        (compare r0 r2 = 0);
      let s = cache_stats m2 in
      Alcotest.(check int) "served from disk" 1 s.Measurement_cache.disk_hits;
      Alcotest.(check int) "no simulation ran" 0 s.Measurement_cache.misses)

let test_disk_cache_shared_across_seeds () =
  with_cache_dir (fresh_dir "seedshare") (fun () ->
      let a = arch () in
      let p = mono a "mulld" in
      let c = config a ~cores:2 ~smt:1 in
      let m1 = Machine.create ~seed:1 a.Arch.uarch in
      let r1 = Machine.run m1 c p in
      (* [p] is built only from seed-independent passes, so the seed is
         folded out of its cache key: the entry written under seed 1
         must be served to a fresh machine running under seed 2 *)
      let m2 = Machine.create ~seed:2 a.Arch.uarch in
      let r2 = Machine.run m2 c p in
      Alcotest.(check bool) "served bit-identical" true (compare r1 r2 = 0);
      let s = cache_stats m2 in
      Alcotest.(check int) "served from disk" 1 s.Measurement_cache.disk_hits;
      Alcotest.(check int) "no simulation ran" 0 s.Measurement_cache.misses)

let test_disk_cache_corrupt_skipped () =
  with_cache_dir (fresh_dir "corrupt") (fun () ->
      let a = arch () in
      let p = mono a "subf" in
      let c = config a ~cores:1 ~smt:1 in
      let m1 = Machine.create a.Arch.uarch in
      let r1 = Machine.run m1 c p in
      (* vandalise every entry on disk, walking the shard subdirectories *)
      let dir = Sys.getenv "MP_CACHE_DIR" in
      let rec vandalise d =
        Array.iter
          (fun f ->
            let path = Filename.concat d f in
            if Sys.is_directory path then vandalise path
            else begin
              let oc = open_out_bin path in
              output_string oc "not a marshalled measurement";
              close_out oc
            end)
          (Sys.readdir d)
      in
      vandalise dir;
      (* corrupt entries are skipped without error and recomputed *)
      let m2 = Machine.create a.Arch.uarch in
      let r2 = Machine.run m2 c p in
      Alcotest.(check bool) "recomputed bit-identical" true
        (compare r1 r2 = 0);
      let s = cache_stats m2 in
      Alcotest.(check int) "nothing served from disk" 0
        s.Measurement_cache.disk_hits;
      Alcotest.(check int) "recomputed once" 1 s.Measurement_cache.misses)

(* The regular files of a store's root: its segments. *)
let segment_files d =
  Array.to_list (Sys.readdir d)
  |> List.filter (fun f -> not (Sys.is_directory (Filename.concat d f)))

(* A second store on the same directory, as another process would open
   it: its first lookup scans the segments from disk. *)
let as_other_process (disk : Measurement_cache.disk) =
  { disk with Measurement_cache.dir = Filename.concat disk.Measurement_cache.dir "." }

let test_disk_cache_concurrent_writers () =
  let a = arch () in
  let p = mono a "mulld" in
  let c = config a ~cores:1 ~smt:1 in
  let m = Machine.run (Machine.create ~cache:false a.Arch.uarch) c p in
  let dir = fresh_dir "concwr" in
  let disk =
    { Measurement_cache.dir; namespace = Measurement_cache.namespace () }
  in
  let key i = Printf.sprintf "ab%06dcafe" (i mod 4) in
  (* two independent tables race appends of the same keys into the
     process's one segment — concurrent writers of one key store
     identical bytes, so whichever frame lands last wins harmlessly *)
  let writer () =
    let t = Measurement_cache.create ~disk () in
    for i = 0 to 39 do
      Measurement_cache.add t (key i) m
    done
  in
  let d1 = Domain.spawn writer and d2 = Domain.spawn writer in
  Domain.join d1;
  Domain.join d2;
  List.iter
    (fun disk ->
      let r = Measurement_cache.create ~disk () in
      for i = 0 to 3 do
        match Measurement_cache.find r (key i) with
        | Some got ->
          Alcotest.(check bool) "raced entry bit-identical" true
            (compare got m = 0)
        | None -> Alcotest.fail "concurrently written entry missing"
      done)
    [ disk; as_other_process disk ];
  Alcotest.(check int) "one segment for both writers" 1
    (List.length (segment_files dir));
  let s = Measurement_cache.disk_stats dir in
  Alcotest.(check int) "one live entry per key" 4 s.Measurement_cache.ds_entries;
  Alcotest.(check int) "segments counted" 1 s.Measurement_cache.ds_segments

let test_replay_store_concurrent_writers () =
  let a = arch () in
  let u = a.Arch.uarch in
  let p = mono a "mulld" in
  (* a dense single-thread run at the Core_sim level supplies the
     ground-truth activity and period delta a replay record stores *)
  let opmap = Core_sim.opmap_create () in
  let dp = Core_sim.deploy ~uarch:u ~opmap ~streams:(fun _ -> [||]) p in
  let activity, pd =
    Core_sim.run_ex ~uarch:u ~opmap ~warmup:1 ~measure:4 [| dp |]
  in
  let fp = Measurement_cache.uarch_fingerprint u in
  let key =
    Replay.key ~uarch:fp ~smt:1 ~warmup:1
      ~mem_latency:u.Mp_uarch.Uarch_def.mem_latency [| p |]
  in
  let dir = fresh_dir "replaywr" in
  let writer () =
    let t = Replay.create ~disk_dir:dir () in
    for _ = 1 to 20 do
      Replay.record t ~opmap ~measure:4 key activity pd
    done
  in
  let d1 = Domain.spawn writer and d2 = Domain.spawn writer in
  Domain.join d1;
  Domain.join d2;
  (* a fresh table must reconstruct the activity from disk exactly as
     an uncontended in-memory table would (replay-vs-dense equivalence
     itself is covered by the replay suite) *)
  let daf = Ir.data_activity_factor p in
  let reference = Replay.create () in
  Replay.record reference ~opmap ~measure:4 key activity pd;
  let expect =
    match Replay.find reference ~opmap ~daf ~warmup:1 ~measure:4 key with
    | Some a -> a
    | None -> Alcotest.fail "reference table did not serve its own record"
  in
  (* read back through the writers' store and through a fresh scan *)
  List.iter
    (fun disk_dir ->
      let t = Replay.create ~disk_dir () in
      match Replay.find t ~opmap ~daf ~warmup:1 ~measure:4 key with
      | Some got ->
        Alcotest.(check bool) "raced store serves the uncontended record"
          true
          (compare got expect = 0)
      | None -> Alcotest.fail "record not served from the replay store")
    [ dir; Filename.concat dir "." ];
  let s = Measurement_cache.disk_stats dir in
  Alcotest.(check int) "one segment" 1 s.Measurement_cache.ds_segments;
  Alcotest.(check int) "one live record" 1 s.Measurement_cache.ds_entries

let test_replay_store_housekeeping () =
  with_cache_dir (fresh_dir "replaygc") (fun () ->
      let a = arch () in
      let u = a.Arch.uarch in
      let p = mono a "mulld" in
      let dir = Sys.getenv "MP_CACHE_DIR" in
      let rdir = Measurement_cache.replay_dir dir in
      (* one record of this build, written through a table on the
         replay store ... *)
      let opmap = Core_sim.opmap_create () in
      let dp = Core_sim.deploy ~uarch:u ~opmap ~streams:(fun _ -> [||]) p in
      let activity, pd =
        Core_sim.run_ex ~uarch:u ~opmap ~warmup:1 ~measure:4 [| dp |]
      in
      let key =
        Replay.key
          ~uarch:(Measurement_cache.uarch_fingerprint u)
          ~smt:1 ~warmup:1 ~mem_latency:u.Mp_uarch.Uarch_def.mem_latency
          [| p |]
      in
      Replay.record (Replay.create ~disk_dir:rdir ()) ~opmap ~measure:4 key
        activity pd;
      (* ... and, per store, another build's segment and a file the v3
         layout left in a shard directory *)
      let write path =
        let oc = open_out_bin path in
        output_string oc "stale";
        close_out oc;
        path
      in
      let stale store =
        let shard = Filename.concat store "ab" in
        (try Unix.mkdir shard 0o755 with Unix.Unix_error _ -> ());
        ( write (Filename.concat store "v0-stale-1-1"),
          write (Filename.concat shard "v3-stale-ab00"),
          shard )
      in
      let stale_segment, stale_entry, stale_shard = stale dir in
      let stale_rsegment, stale_record, stale_rshard = stale rdir in
      ignore (Machine.create u);
      List.iter
        (fun (what, path) ->
          Alcotest.(check bool) (what ^ " pruned") false (Sys.file_exists path))
        [ ("stale cache segment", stale_segment);
          ("v3 cache entry", stale_entry);
          ("empty v3 cache shard", stale_shard);
          ("stale replay segment", stale_rsegment);
          ("v3 replay record", stale_record);
          ("empty v3 replay shard", stale_rshard) ];
      Alcotest.(check int) "current replay record kept" 1
        (Measurement_cache.disk_stats rdir).Measurement_cache.ds_entries;
      let s = Measurement_cache.gc ~max_bytes:0 dir in
      Alcotest.(check int) "gc sees the replay segment" 1
        s.Measurement_cache.segments;
      Alcotest.(check int) "gc removes it" 1 s.Measurement_cache.removed;
      Alcotest.(check int) "replay store empty" 0
        (Measurement_cache.disk_stats rdir).Measurement_cache.ds_entries)

(* ----- multi-process batches ------------------------------------------------ *)

let test_procs_batch_matches_serial () =
  let a = arch () in
  (* a non-dyadic core count, memory and compute kernels, and a
     heterogeneous batch: the full surface of the wire protocol *)
  let p1 = mono a "mulld" and p2 = mono a "lbz" in
  let c3 = config a ~cores:3 ~smt:2 in
  let c1 = config a ~cores:1 ~smt:1 in
  let jobs = [ (c3, p1); (c1, p1); (c3, p2); (c1, p2) ] in
  let m1 = Machine.create ~cache:false a.Arch.uarch in
  let serial = List.map (fun (c, p) -> Machine.run m1 c p) jobs in
  let m2 = Machine.create ~cache:false a.Arch.uarch in
  let batch = Machine.run_batch ~procs:2 m2 jobs in
  List.iter2
    (fun (s : Measurement.t) (b : Measurement.t) ->
      Alcotest.(check bool)
        (s.Measurement.program ^ " procs bit-identical")
        true
        (compare s b = 0))
    serial batch;
  (* heterogeneous jobs ride the same wire *)
  let hjobs = [ (c3, [ p1; p2 ]); (c3, [ p2; p1 ]) ] in
  let hserial =
    List.map (fun (c, ps) -> Machine.run_heterogeneous m1 c ps) hjobs
  in
  let m3 = Machine.create ~cache:false a.Arch.uarch in
  let hbatch = Machine.run_heterogeneous_batch ~procs:2 m3 hjobs in
  List.iter2
    (fun (s : Measurement.t) (b : Measurement.t) ->
      Alcotest.(check bool)
        (s.Measurement.program ^ " hetero procs bit-identical")
        true
        (compare s b = 0))
    hserial hbatch

let test_hetero_batch_arity () =
  (* a one-program job at SMT 2 is not a heterogeneous job: the batch
     must reject it before anything runs, in-process and sharded alike
     — a worker would otherwise measure it as a replicated deployment *)
  let a = arch () in
  let c = config a ~cores:2 ~smt:2 in
  let p1 = mono a "mulld" and p2 = mono a "lbz" and p3 = mono a "fadd" in
  let jobs =
    [ (c, [ p1; p2 ]); (c, [ p2; p1 ]); (c, [ p1; p3 ]); (c, [ p3; p2 ]);
      (c, [ p3 ]) ]
  in
  List.iter
    (fun procs ->
      let m = Machine.create ~cache:false a.Arch.uarch in
      Alcotest.(check bool)
        (Printf.sprintf "procs %d rejects the batch" procs)
        true
        (match Machine.run_heterogeneous_batch ~procs m jobs with
         | _ -> false
         | exception Invalid_argument _ -> true))
    [ 0; 2 ]

let test_single_flight () =
  let cache = Measurement_cache.create () in
  let calls = Atomic.make 0 in
  let dummy =
    {
      Measurement.config = { Mp_uarch.Uarch_def.cores = 1; smt = 1 };
      program = "sf";
      threads = [||];
      core_ipc = 0.0;
      power = 1.0;
      power_trace = [||];
    }
  in
  let pool = Mp_util.Parallel.create 4 in
  let rs =
    Mp_util.Parallel.map pool
      (fun _ ->
        Measurement_cache.find_or_add cache "the-key" (fun () ->
            Atomic.incr calls;
            Unix.sleepf 0.02;
            dummy))
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Mp_util.Parallel.shutdown pool;
  (* concurrent misses on one key run the computation at most once *)
  Alcotest.(check int) "compute ran once" 1 (Atomic.get calls);
  List.iter
    (fun r ->
      Alcotest.(check bool) "same value" true (compare r dummy = 0))
    rs;
  let s = Measurement_cache.stats cache in
  Alcotest.(check int) "one miss (one simulation)" 1 s.Measurement_cache.misses;
  Alcotest.(check int) "five hits" 5 s.Measurement_cache.hits

let test_cache_gc () =
  let dir = fresh_dir "gc" in
  let rdir = Measurement_cache.replay_dir dir in
  (try Unix.mkdir dir 0o755 with _ -> ());
  (try Unix.mkdir rdir 0o755 with _ -> ());
  let write name bytes mtime =
    let path = Filename.concat dir name in
    let oc = open_out_bin path in
    output_string oc (String.make bytes 'x');
    close_out oc;
    Unix.utimes path mtime mtime
  in
  let t0 = Unix.gettimeofday () -. 1000.0 in
  (* five 1000-byte segments, oldest first — one in the replay store,
     which the sweep must walk too *)
  write "v4-a-1-1" 1000 t0;
  write "v4-a-2-1" 1000 (t0 +. 10.0);
  write (Filename.concat "replay" "v4-a-3-1") 1000 (t0 +. 15.0);
  write "v4-a-4-1" 1000 (t0 +. 20.0);
  write "v4-a-5-1" 1000 (t0 +. 30.0);
  let s = Measurement_cache.gc ~max_bytes:2500 dir in
  (* the three oldest segments go, whole, from either store *)
  Alcotest.(check int) "segments examined" 5 s.Measurement_cache.segments;
  Alcotest.(check int) "removed oldest three" 3 s.Measurement_cache.removed;
  Alcotest.(check int) "bytes before" 5000 s.Measurement_cache.bytes_before;
  Alcotest.(check int) "bytes after" 2000 s.Measurement_cache.bytes_after;
  Alcotest.(check bool) "oldest gone" false
    (Sys.file_exists (Filename.concat dir "v4-a-1-1"));
  Alcotest.(check bool) "second oldest gone" false
    (Sys.file_exists (Filename.concat dir "v4-a-2-1"));
  Alcotest.(check bool) "replay segment evicted too" false
    (Sys.file_exists (Filename.concat rdir "v4-a-3-1"));
  Alcotest.(check bool) "newest kept" true
    (Sys.file_exists (Filename.concat dir "v4-a-5-1"));
  (* already under the bound: a second sweep removes nothing *)
  let s2 = Measurement_cache.gc ~max_bytes:2500 dir in
  Alcotest.(check int) "idempotent" 0 s2.Measurement_cache.removed;
  (* missing directory is an empty sweep, not an error *)
  let s3 = Measurement_cache.gc ~max_bytes:1 (dir ^ "-nonexistent") in
  Alcotest.(check int) "missing dir" 0 s3.Measurement_cache.segments

let test_cache_gc_env () =
  Unix.putenv "MP_CACHE_MAX_MB" "2";
  Alcotest.(check (option int)) "MiB to bytes" (Some (2 * 1024 * 1024))
    (Measurement_cache.env_max_bytes ());
  Unix.putenv "MP_CACHE_MAX_MB" "0.5";
  Alcotest.(check (option int)) "fractional" (Some (512 * 1024))
    (Measurement_cache.env_max_bytes ());
  Unix.putenv "MP_CACHE_MAX_MB" "junk";
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument "MP_CACHE_MAX_MB=\"junk\": expected a number > 0")
    (fun () -> ignore (Measurement_cache.env_max_bytes ()));
  Unix.putenv "MP_CACHE_MAX_MB" "-3";
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "MP_CACHE_MAX_MB=\"-3\": expected a number > 0")
    (fun () -> ignore (Measurement_cache.env_max_bytes ()));
  Unix.putenv "MP_CACHE_MAX_MB" " ";
  Alcotest.(check (option int)) "blank is unset" None
    (Measurement_cache.env_max_bytes ());
  Unix.putenv "MP_CACHE_MAX_MB" ""

(* a typo in MP_CACHE stops [Machine.create] instead of leaving the
   disk cache on *)
let test_cache_flag_rejected () =
  let a = arch () in
  Unix.putenv "MP_CACHE" "of";
  let outcome =
    Fun.protect
      ~finally:(fun () -> Unix.putenv "MP_CACHE" "")
      (fun () ->
        match Machine.create a.Arch.uarch with
        | _ -> "created"
        | exception Invalid_argument msg -> msg)
  in
  Alcotest.(check string) "rejected"
    "MP_CACHE=\"of\": expected on|off|1|0|true|false|yes|no" outcome

(* ----- structural keys and batch dedup -------------------------------------- *)

(* A deliberately diverse program set — distinct opcodes, sizes,
   dependency modes, memory mixes and branch patterns, with structural
   duplicates built independently — to exercise the key derivations. *)
let diverse_programs a =
  let brancher () =
    let synth = Synthesizer.create ~name:"kv-branch" a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:64);
    Synthesizer.add_pass synth
      (Passes.fill_sequence [ Arch.find_instruction a "add" ]);
    Synthesizer.add_pass synth
      (Passes.branch_model ~bc:(Arch.find_instruction a "bc") ~frequency:0.2
         ~taken_ratio:0.5 ~pattern_length:4);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed:31 synth
  in
  [
    mono a "add";
    mono a "add";                   (* independently built duplicate *)
    mono a ~size:64 "add";
    mono a "mulld";
    mono a ~dep:(Builder.Fixed 1) "mulld";
    mono a "fadd";
    mono a "xvmaddadp";
    mono a "lbz";
    mono a
      ~mem_mix:
        [ (Mp_uarch.Cache_geometry.L1, 0.5); (Mp_uarch.Cache_geometry.L2, 0.5) ]
      "lbz";
    brancher ();
    brancher ();                    (* duplicate with a branch pattern *)
  ]

(* The reference key derivation the structural fold replaced:
   serialise every program field into a buffer and MD5 it. Kept here
   as the oracle for the equivalence-class test. *)
let level_tag = function
  | Mp_uarch.Cache_geometry.L1 -> '1'
  | Mp_uarch.Cache_geometry.L2 -> '2'
  | Mp_uarch.Cache_geometry.L3 -> '3'
  | Mp_uarch.Cache_geometry.MEM -> 'M'

let add_int buf n =
  Buffer.add_string buf (string_of_int n);
  Buffer.add_char buf ';'

let add_int64 buf n =
  Buffer.add_string buf (Int64.to_string n);
  Buffer.add_char buf ';'

let add_reg buf r =
  Buffer.add_string buf (Reg.to_string r);
  Buffer.add_char buf ','

let add_program buf (p : Ir.t) =
  Buffer.add_string buf p.Ir.name;
  Buffer.add_char buf '\x00';
  Array.iter
    (fun (i : Ir.instr) ->
      Buffer.add_string buf i.Ir.op.Mp_isa.Instruction.mnemonic;
      Buffer.add_char buf '(';
      List.iter (add_reg buf) i.Ir.dests;
      Buffer.add_char buf '<';
      List.iter (add_reg buf) i.Ir.srcs;
      (match i.Ir.imm with
       | Some v ->
         Buffer.add_char buf '#';
         add_int64 buf v
       | None -> ());
      (match i.Ir.mem_target with
       | Some l ->
         Buffer.add_char buf '@';
         Buffer.add_char buf (level_tag l)
       | None -> ());
      (match i.Ir.taken_pattern with
       | Some pat ->
         Buffer.add_char buf '?';
         Array.iter (fun b -> Buffer.add_char buf (if b then 't' else 'f')) pat
       | None -> ());
      Buffer.add_char buf ')')
    p.Ir.body;
  Buffer.add_char buf '|';
  List.iter
    (fun (r, v) ->
      add_reg buf r;
      Buffer.add_char buf '=';
      add_int64 buf v)
    p.Ir.reg_init;
  Buffer.add_char buf '|';
  match p.Ir.memory_distribution with
  | None -> Buffer.add_char buf '-'
  | Some dist ->
    List.iter
      (fun (l, w) ->
        Buffer.add_char buf (level_tag l);
        add_int64 buf (Int64.bits_of_float w))
      dist

let key_marshal ?(uarch = "") ?seed ~(config : Mp_uarch.Uarch_def.config)
    ~warmup ~measure ~name per_thread =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf uarch;
  Buffer.add_char buf ';';
  (match seed with Some s -> add_int buf s | None -> Buffer.add_string buf "-;");
  add_int buf config.Mp_uarch.Uarch_def.cores;
  add_int buf config.Mp_uarch.Uarch_def.smt;
  add_int buf warmup;
  add_int buf measure;
  Buffer.add_string buf name;
  Buffer.add_char buf '\x00';
  Array.iter (add_program buf) per_thread;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_key_equivalence_classes () =
  (* the structural-fold keys must induce exactly the hit/miss
     equivalence classes of the marshal-digest keys over a diverse job
     population: programs × configs × seed presence × windows *)
  let a = arch () in
  let fp = Measurement_cache.uarch_fingerprint a.Arch.uarch in
  let jobs =
    List.concat_map
      (fun p ->
        List.concat_map
          (fun (cores, smt) ->
            List.map
              (fun (seed, warmup, measure) -> (p, cores, smt, seed, warmup, measure))
              [ (Some 1, 1, 8); (Some 2, 1, 8); (None, 1, 8); (Some 1, 2, 16) ])
          [ (1, 1); (4, 2) ])
      (diverse_programs a)
  in
  let keys =
    List.map
      (fun ((p : Ir.t), cores, smt, seed, warmup, measure) ->
        let c = config a ~cores ~smt in
        ( Measurement_cache.key ~uarch:fp ?seed ~config:c ~warmup ~measure
            ~name:p.Ir.name [| p |],
          key_marshal ~uarch:fp ?seed ~config:c ~warmup ~measure
            ~name:p.Ir.name [| p |] ))
      jobs
  in
  let keys = Array.of_list keys in
  let n = Array.length keys in
  let mismatches = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s_eq = fst keys.(i) = fst keys.(j) in
      let m_eq = snd keys.(i) = snd keys.(j) in
      if s_eq <> m_eq then incr mismatches
    done
  done;
  Alcotest.(check int) "identical equivalence classes" 0 !mismatches;
  (* and the classes are non-trivial: the independently built
     duplicates actually collide *)
  let dup_pairs =
    Array.to_list keys
    |> List.filter (fun (s, _) -> s = fst keys.(0))
    |> List.length
  in
  Alcotest.(check bool) "duplicates share a key" true (dup_pairs >= 2)

let test_struct_hash_precomputed () =
  (* the hash carried on a finalized program is exactly the recomputed
     one, and editing the body without rehashing is detectable *)
  let a = arch () in
  List.iter
    (fun (p : Ir.t) ->
      Alcotest.(check bool) (p.Ir.name ^ " hash consistent") true
        (Ir.struct_hash p = Ir.struct_hash (Ir.rehash p)))
    (diverse_programs a)

let test_batch_dedup_scatter () =
  (* duplicates inside one batch: results must be bit-identical to the
     undeduplicated run, in original order, with the collapse counted *)
  let a = arch () in
  let p1 = mono a "mulld" in
  let p2 = mono a "fadd" in
  let p3 = mono a "lbz" in
  let c1 = config a ~cores:2 ~smt:1 in
  let c2 = config a ~cores:4 ~smt:2 in
  (* (c1,p1) three times and (c2,p2) twice -> 3 collapsed positions;
     (c2,p1) is a distinct point despite sharing the program *)
  let jobs =
    [ (c1, p1); (c2, p2); (c1, p1); (c1, p3); (c2, p2); (c1, p1); (c2, p1) ]
  in
  let plain =
    Machine.run_batch ~dedup:false (Machine.create ~cache:false a.Arch.uarch)
      jobs
  in
  let d0 = Machine.batch_dup_collapsed () in
  let deduped =
    Machine.run_batch (Machine.create ~cache:false a.Arch.uarch) jobs
  in
  Alcotest.(check int) "three positions collapsed" 3
    (Machine.batch_dup_collapsed () - d0);
  List.iteri
    (fun i (p, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "position %d bit-identical" i)
        true (compare p d = 0))
    (List.combine plain deduped)

let test_hetero_batch_dedup_scatter () =
  let a = arch () in
  let p1 = mono a "mulld" in
  let p2 = mono a "lbz" in
  let c = config a ~cores:2 ~smt:2 in
  let jobs =
    [ (c, [ p1; p2 ]); (c, [ p2; p1 ]); (c, [ p1; p2 ]); (c, [ p1; p1 ]) ]
  in
  let plain =
    Machine.run_heterogeneous_batch ~dedup:false
      (Machine.create ~cache:false a.Arch.uarch)
      jobs
  in
  let d0 = Machine.batch_dup_collapsed () in
  let deduped =
    Machine.run_heterogeneous_batch
      (Machine.create ~cache:false a.Arch.uarch)
      jobs
  in
  (* only the exact per-thread assignment repeat collapses; the swapped
     assignment is a different point *)
  Alcotest.(check int) "one position collapsed" 1
    (Machine.batch_dup_collapsed () - d0);
  List.iteri
    (fun i (p, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "hetero position %d bit-identical" i)
        true (compare p d = 0))
    (List.combine plain deduped)

let test_disk_cache_segment_layout () =
  with_cache_dir (fresh_dir "segment") (fun () ->
      let a = arch () in
      let c = config a ~cores:1 ~smt:1 in
      let m1 = Machine.create a.Arch.uarch in
      let runs =
        List.map (fun i -> Machine.run m1 c (mono a i)) [ "mulld"; "add"; "subf" ]
      in
      let dir = Sys.getenv "MP_CACHE_DIR" in
      let ns = Measurement_cache.namespace () in
      (* the root holds one segment, [<namespace>-<pid>-<nonce>], and no
         subdirectory but the replay store *)
      Array.iter
        (fun f ->
          if Sys.is_directory (Filename.concat dir f) then
            Alcotest.(check string) "only the replay store is a directory"
              "replay" f)
        (Sys.readdir dir);
      (match segment_files dir with
       | [ f ] ->
         let prefix = Printf.sprintf "%s-%d-" ns (Unix.getpid ()) in
         Alcotest.(check string) "segment named by namespace and pid" prefix
           (String.sub f 0 (min (String.length f) (String.length prefix)))
       | fs ->
         Alcotest.failf "expected one segment, found %d" (List.length fs));
      (* a fresh scan serves every entry from its frame *)
      with_cache_dir (Filename.concat dir ".") (fun () ->
          let m2 = Machine.create a.Arch.uarch in
          List.iter2
            (fun i r ->
              Alcotest.(check bool) (i ^ " served bit-identical") true
                (compare r (Machine.run m2 c (mono a i)) = 0))
            [ "mulld"; "add"; "subf" ] runs;
          let s = cache_stats m2 in
          Alcotest.(check int) "all from disk" 3 s.Measurement_cache.disk_hits;
          Alcotest.(check int) "no simulation ran" 0 s.Measurement_cache.misses))

(* ----- exact period skipping ------------------------------------------------ *)

(* Dense and period-skipped runs must be bit-identical: same counters,
   transitions, cache stats, power and trace. Fresh uncached machines on
   both sides so nothing is served from memo tables. *)
let period_equiv ?(cores = 1) ?(smt = 1) ?(warmup = 1) ?(measure = 48) name p =
  let a = arch () in
  let cfg = config a ~cores ~smt in
  let dense =
    Machine.run ~warmup ~measure ~period:false
      (Machine.create ~cache:false ~replay:false a.Arch.uarch)
      cfg p
  in
  let skip =
    Machine.run ~warmup ~measure ~period:true
      (Machine.create ~cache:false ~replay:false a.Arch.uarch)
      cfg p
  in
  Alcotest.(check bool) (name ^ " bit-identical") true (compare dense skip = 0)

let test_period_detects_and_skips () =
  (* pipe residuals are integer ticks over the uarch denominator, so
     every kernel's steady state repeats bit-for-bit; the simplest case
     — fadd on occupancy-1.0 pipes — must be detected and skipped *)
  let a = arch () in
  let hits0 = Core_sim.period_hits () in
  let skipped0 = Core_sim.cycles_skipped () in
  let m = Machine.create ~cache:false ~replay:false a.Arch.uarch in
  ignore
    (Machine.run ~measure:64 ~period:true m (config a ~cores:1 ~smt:1)
       (mono a "fadd"));
  Alcotest.(check bool) "periodic kernel detected" true
    (Core_sim.period_hits () > hits0);
  Alcotest.(check bool) "cycles were skipped" true
    (Core_sim.cycles_skipped () > skipped0)

let test_period_equiv_compute () =
  let a = arch () in
  period_equiv "add smt1" (mono a "add");
  period_equiv "mulldo smt1" (mono a "mulldo");
  period_equiv ~smt:2 "subf smt2" (mono a "subf");
  period_equiv ~smt:4 "fadd chain smt4" (mono a ~dep:(Builder.Fixed 1) "fadd")

let test_period_equiv_windows () =
  let a = arch () in
  let p = mono a "fmadd" in
  period_equiv ~warmup:3 ~measure:17 "warmup 3 measure 17" p;
  period_equiv ~warmup:1 ~measure:5 "measure 5" p;
  period_equiv ~cores:4 ~smt:2 ~measure:32 "4 cores smt2" p

let test_period_equiv_branches () =
  let a = arch () in
  let build ~taken_ratio ~pattern_length =
    let synth = Synthesizer.create ~name:"brper" a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:128);
    Synthesizer.add_pass synth
      (Passes.fill_sequence [ Arch.find_instruction a "add" ]);
    Synthesizer.add_pass synth
      (Passes.branch_model ~bc:(Arch.find_instruction a "bc") ~frequency:0.2
         ~taken_ratio ~pattern_length);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed:31 synth
  in
  period_equiv "balanced pattern" (build ~taken_ratio:0.5 ~pattern_length:4);
  period_equiv "biased pattern" (build ~taken_ratio:0.8 ~pattern_length:5);
  period_equiv ~smt:2 "branches smt2" (build ~taken_ratio:0.5 ~pattern_length:3)

let test_period_equiv_memory () =
  let a = arch () in
  period_equiv ~measure:32 "L1 loads" (mono a "lbz");
  period_equiv ~measure:32 "L1/L2 mix"
    (mono a
       ~mem_mix:
         [ (Mp_uarch.Cache_geometry.L1, 0.5); (Mp_uarch.Cache_geometry.L2, 0.5) ]
       "lbz");
  period_equiv ~measure:16 "MEM chase"
    (mono a ~dep:(Builder.Fixed 1)
       ~mem_mix:[ (Mp_uarch.Cache_geometry.MEM, 1.0) ]
       "ld");
  period_equiv ~smt:2 ~measure:16 "three levels smt2"
    (mono a
       ~mem_mix:
         [ (Mp_uarch.Cache_geometry.L1, 0.4);
           (Mp_uarch.Cache_geometry.L2, 0.3);
           (Mp_uarch.Cache_geometry.L3, 0.3) ]
       "lbz")

let test_period_equiv_heterogeneous () =
  let a = arch () in
  let compute = mono a "xvmaddadp" in
  let memory = mono a "lbz" in
  let cfg = config a ~cores:2 ~smt:2 in
  let dense =
    Machine.run_heterogeneous ~measure:32 ~period:false
      (Machine.create ~cache:false ~replay:false a.Arch.uarch)
      cfg [ compute; memory ]
  in
  let skip =
    Machine.run_heterogeneous ~measure:32 ~period:true
      (Machine.create ~cache:false ~replay:false a.Arch.uarch)
      cfg [ compute; memory ]
  in
  Alcotest.(check bool) "hetero bit-identical" true (compare dense skip = 0)

let test_period_aperiodic_fallback () =
  (* A stream whose length (127, prime) exceeds the measured window:
     every iteration boundary has a distinct stream phase, so no
     fingerprint repeats within the run — the detector simply never
     fires and the run must still match a dense run exactly. *)
  let a = arch () in
  let u = a.Arch.uarch in
  let p = mono a ~size:8 "lbz" in
  let aper = Array.init 127 (fun i -> i * 7919 * 128) in
  let run_with period =
    (* fresh opmap per run: both runs intern the same names in the same
       order, so activities are comparable field by field *)
    let opmap = Core_sim.opmap_create () in
    let dp = Core_sim.deploy ~uarch:u ~opmap ~streams:(fun _ -> aper) p in
    Core_sim.run ~uarch:u ~opmap ~warmup:1 ~measure:32 ~period [| dp |]
  in
  let hits0 = Core_sim.period_hits () in
  let dense = run_with false in
  let skip = run_with true in
  Alcotest.(check int) "no period found" hits0 (Core_sim.period_hits ());
  Alcotest.(check bool) "fallback bit-identical" true (compare dense skip = 0)

let test_period_nondyadic () =
  (* Fractional occupancies — 1.19 (lbz on the LSU), 1.3 (andi.'s LSU
     alternate), 1.43 (mulld), 2.08/0.5 (stfd on the wide store port and
     VSU) — are exact integer ticks over the uarch denominator, so these
     steady states repeat bit-for-bit too: the detector must fire for
     every kernel at every SMT level, and skipping must not change a
     single bit relative to dense. *)
  let a = arch () in
  List.iter
    (fun mnemonic ->
      let p = mono a ~size:64 mnemonic in
      List.iter
        (fun smt ->
          let name = Printf.sprintf "%s smt%d" mnemonic smt in
          let cfg = config a ~cores:1 ~smt in
          (* residual phases repeat within occ_den (=100) iterations and
             the L1 streams within their pool length; 256 measured
             iterations covers the combined period with margin *)
          let dense =
            Machine.run ~measure:256 ~period:false
              (Machine.create ~cache:false ~replay:false a.Arch.uarch)
              cfg p
          in
          let hits0 = Core_sim.period_hits () in
          let skip =
            Machine.run ~measure:256 ~period:true
              (Machine.create ~cache:false ~replay:false a.Arch.uarch)
              cfg p
          in
          Alcotest.(check bool) (name ^ " period detected") true
            (Core_sim.period_hits () > hits0);
          Alcotest.(check bool) (name ^ " bit-identical") true
            (compare dense skip = 0))
        [ 1; 2; 4 ])
    [ "lbz"; "andi."; "mulld"; "stfd" ]

let test_period_training_suite () =
  (* the acceptance bar: dense and skipped runs agree on every program
     of the (quick) Table-2 training suite *)
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let fams = Mp_workloads.Training.table2 ~machine ~arch:a ~quick:true () in
  let progs =
    List.map
      (fun (e : Mp_workloads.Training.entry) -> e.Mp_workloads.Training.program)
      (Mp_workloads.Training.all_entries fams)
  in
  Alcotest.(check bool) "suite non-empty" true (List.length progs > 20);
  let cfg = config a ~cores:8 ~smt:2 in
  let dense_m = Machine.create ~cache:false ~replay:false a.Arch.uarch in
  let skip_m = Machine.create ~cache:false ~replay:false a.Arch.uarch in
  List.iteri
    (fun i p ->
      let dense = Machine.run ~measure:12 ~period:false dense_m cfg p in
      let skip = Machine.run ~measure:12 ~period:true skip_m cfg p in
      Alcotest.(check bool)
        (Printf.sprintf "suite entry %d (%s) bit-identical" i
           p.Mp_codegen.Ir.name)
        true
        (compare dense skip = 0))
    progs

(* ----- steady-state replay -------------------------------------------------- *)

(* Replay serves later measurements of the same structural program from
   a captured period record; every served activity must be bit-identical
   to dense simulation. The tests run against the process-global table
   (the one Machine.create attaches), so hit/miss assertions are
   delta-based. *)

let replay_dense ?(cores = 1) ?(smt = 1) ?measure a p =
  Machine.run ?measure
    (Machine.create ~cache:false ~replay:false a.Arch.uarch)
    (config a ~cores ~smt) p

let test_replay_bit_identity () =
  (* compute kernels across SMT levels, including the non-dyadic mulld
     (occupancy 1.43) whose steady state only repeats every second
     iteration: a second run on the same machine and a run on a fresh
     machine must both be served from the table, bit-identical *)
  let a = arch () in
  List.iter
    (fun (mnemonic, dep) ->
      let p = mono a ~dep mnemonic in
      List.iter
        (fun smt ->
          let name = Printf.sprintf "%s smt%d" mnemonic smt in
          let dense = replay_dense ~smt a p in
          let m = Machine.create ~cache:false a.Arch.uarch in
          let r1 = Machine.run m (config a ~cores:1 ~smt) p in
          let hits0 = Replay.hits () in
          let r2 = Machine.run m (config a ~cores:1 ~smt) p in
          Alcotest.(check bool) (name ^ " first run = dense") true
            (compare dense r1 = 0);
          Alcotest.(check bool) (name ^ " replayed run = dense") true
            (compare dense r2 = 0);
          Alcotest.(check bool) (name ^ " second run hit the table") true
            (Replay.hits () > hits0);
          (* a fresh machine shares the process-global table *)
          let m2 = Machine.create ~cache:false a.Arch.uarch in
          let r3 = Machine.run m2 (config a ~cores:1 ~smt) p in
          Alcotest.(check bool) (name ^ " fresh machine = dense") true
            (compare dense r3 = 0))
        [ 1; 2; 4 ])
    [ ("add", Builder.No_deps); ("mulld", Builder.No_deps);
      ("fadd", Builder.Fixed 1) ]

let test_replay_memory () =
  (* memory programs consume the per-run RNG (address streams), so
     their records are salted with the machine seed: replay under each
     seed must reproduce that seed's dense run, not another's *)
  let a = arch () in
  let progs =
    [ ("lbz L1", mono a "lbz");
      ("lbz L1/L2",
       mono a
         ~mem_mix:
           [ (Mp_uarch.Cache_geometry.L1, 0.5);
             (Mp_uarch.Cache_geometry.L2, 0.5) ]
         "lbz") ]
  in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun seed ->
          let tag = Printf.sprintf "%s seed %d" name seed in
          let dense =
            Machine.run ~measure:16
              (Machine.create ~seed ~cache:false ~replay:false a.Arch.uarch)
              (config a ~cores:1 ~smt:2) p
          in
          let m = Machine.create ~seed ~cache:false a.Arch.uarch in
          let r1 = Machine.run ~measure:16 m (config a ~cores:1 ~smt:2) p in
          let r2 = Machine.run ~measure:16 m (config a ~cores:1 ~smt:2) p in
          Alcotest.(check bool) (tag ^ " first run = dense") true
            (compare dense r1 = 0);
          Alcotest.(check bool) (tag ^ " replayed = dense") true
            (compare dense r2 = 0))
        [ 2012; 5 ])
    progs

let test_replay_window_extrapolation () =
  (* the period step: a record captured at a narrow window serves a
     wider window by base + k*delta — the common case (default-window
     training runs vs the bootstrap's doubled window). fadd reaches a
     1-iteration steady state inside the default window; size 250
     spreads mulld's non-dyadic residual phases over a 4-iteration
     period at smt1, so from a base of 12 the window 24 is admissible
     (diff 12 = 3 periods) while 14 is not (diff 2) and must fall back
     to dense simulation — bit-identically either way. *)
  let a = arch () in
  List.iter
    (fun (name, p, base, wider, inadmissible) ->
      let m = Machine.create ~cache:false a.Arch.uarch in
      ignore (Machine.run ~measure:base m (config a ~cores:1 ~smt:1) p);
      let hits0 = Replay.hits () in
      let m2 = Machine.create ~cache:false a.Arch.uarch in
      let wide = Machine.run ~measure:wider m2 (config a ~cores:1 ~smt:1) p in
      Alcotest.(check bool) (name ^ " wider window served by replay") true
        (Replay.hits () > hits0);
      Alcotest.(check bool) (name ^ " extrapolated = dense") true
        (compare (replay_dense ~measure:wider a p) wide = 0);
      match inadmissible with
      | None -> ()
      | Some w ->
        let m3 = Machine.create ~cache:false a.Arch.uarch in
        let r = Machine.run ~measure:w m3 (config a ~cores:1 ~smt:1) p in
        Alcotest.(check bool)
          (Printf.sprintf "%s inadmissible window %d = dense" name w)
          true
          (compare (replay_dense ~measure:w a p) r = 0))
    [ ("fadd", mono a "fadd", 8, 24, None);
      ("mulld/250", mono a ~size:250 "mulld", 12, 24, Some 14) ]

let test_replay_disabled () =
  (* ~replay:false opts a machine out entirely: no lookups, no records *)
  let a = arch () in
  let p = mono a "xvmaddadp" in
  let m = Machine.create ~cache:false ~replay:false a.Arch.uarch in
  let hits0 = Replay.hits () in
  let misses0 = Replay.misses () in
  let r1 = Machine.run m (config a ~cores:1 ~smt:1) p in
  let r2 = Machine.run m (config a ~cores:1 ~smt:1) p in
  Alcotest.(check bool) "dense runs identical" true (compare r1 r2 = 0);
  Alcotest.(check int) "no hits" hits0 (Replay.hits ());
  Alcotest.(check int) "no misses" misses0 (Replay.misses ())

let test_replay_name_insensitive () =
  (* records are keyed on the name-free body hash: the same body under
     a different label is the same record. (Memory programs are the
     exception — their salt folds the name because the address-stream
     RNG is seeded from it — so this is a compute kernel.) *)
  let a = arch () in
  let build name =
    let synth = Synthesizer.create ~name a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:96);
    Synthesizer.add_pass synth
      (Passes.fill_sequence [ Arch.find_instruction a "fmul" ]);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed:13 synth
  in
  let alpha = build "alpha" and beta = build "beta" in
  Alcotest.(check bool) "struct hashes differ (name included)" true
    (Ir.struct_hash alpha <> Ir.struct_hash beta);
  Alcotest.(check bool) "body hashes agree (name-free)" true
    (Ir.body_hash alpha = Ir.body_hash beta);
  let fp = Measurement_cache.uarch_fingerprint a.Arch.uarch in
  Alcotest.(check string) "replay keys agree"
    (Replay.key ~uarch:fp ~smt:1 ~warmup:1 ~mem_latency:0 [| alpha |])
    (Replay.key ~uarch:fp ~smt:1 ~warmup:1 ~mem_latency:0 [| beta |]);
  (* end to end: measuring beta is served by alpha's record *)
  let m = Machine.create ~cache:false a.Arch.uarch in
  ignore (Machine.run m (config a ~cores:1 ~smt:1) alpha);
  let hits0 = Replay.hits () in
  let r_beta = Machine.run m (config a ~cores:1 ~smt:1) beta in
  Alcotest.(check bool) "beta served from alpha's record" true
    (Replay.hits () > hits0);
  Alcotest.(check bool) "beta replay = beta dense" true
    (compare (replay_dense a beta) r_beta = 0)

let prop_replay_key_one_edit =
  (* editing a single instruction anywhere in the body must change the
     replay key — the key is a digest of the full instruction stream,
     not of summary statistics *)
  let a = arch () in
  let fp = Measurement_cache.uarch_fingerprint a.Arch.uarch in
  let size = 24 in
  let build pattern =
    let synth = Synthesizer.create ~name:"edit" a in
    Synthesizer.add_pass synth (Passes.skeleton ~size);
    Synthesizer.add_pass synth (Passes.fill_sequence pattern);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed:5 synth
  in
  let add = Arch.find_instruction a "add" in
  let subf = Arch.find_instruction a "subf" in
  QCheck.Test.make ~name:"one-instruction edit changes the replay key"
    ~count:16
    QCheck.(int_range 0 (size - 1))
    (fun i ->
      let base = List.init size (fun _ -> add) in
      let edited = List.mapi (fun j x -> if j = i then subf else x) base in
      let p = build base and p' = build edited in
      Ir.body_hash p <> Ir.body_hash p'
      && Replay.key ~uarch:fp ~smt:1 ~warmup:1 ~mem_latency:0 [| p |]
         <> Replay.key ~uarch:fp ~smt:1 ~warmup:1 ~mem_latency:0 [| p' |])

let prop_power_monotone_in_cores =
  let a = arch () in
  let machine = Machine.create a.Arch.uarch in
  let p = mono a "xvmaddadp" in
  QCheck.Test.make ~name:"power grows with enabled cores" ~count:8
    QCheck.(int_range 1 7)
    (fun n ->
      let pw k = (Machine.run machine (config a ~cores:k ~smt:1) p).Measurement.power in
      pw (n + 1) > pw n)

let () =
  Alcotest.run "mp_sim"
    [
      ("cache",
       [ Alcotest.test_case "hit after fill" `Quick test_cache_hit_after_fill;
         Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
         Alcotest.test_case "counters" `Quick test_cache_counters;
         Alcotest.test_case "prefetcher" `Quick test_prefetcher_detects_streams ]);
      ("ipc",
       [ Alcotest.test_case "simple int" `Quick test_ipc_simple_int;
         Alcotest.test_case "fxu" `Quick test_ipc_fxu;
         Alcotest.test_case "mul" `Quick test_ipc_mul;
         Alcotest.test_case "load" `Quick test_ipc_load;
         Alcotest.test_case "load update" `Quick test_ipc_load_update;
         Alcotest.test_case "vsu" `Quick test_ipc_vsu;
         Alcotest.test_case "vector store" `Quick test_ipc_vec_store;
         Alcotest.test_case "chain limit" `Quick test_dependency_chain_limits_ipc;
         Alcotest.test_case "distance ILP" `Quick test_dependency_distance_parallelism;
         Alcotest.test_case "smt throughput" `Quick test_smt_increases_core_throughput;
         Alcotest.test_case "smt latency hiding" `Quick test_smt_helps_latency_bound;
         Alcotest.test_case "memory latency" `Quick test_memory_latency_lowers_ipc ]);
      ("measurement",
       [ Alcotest.test_case "counters consistent" `Quick test_counters_consistent;
         Alcotest.test_case "memory counters" `Quick test_memory_counters;
         Alcotest.test_case "pmc read" `Quick test_pmc_read_interface;
         Alcotest.test_case "determinism" `Quick test_measurement_determinism;
         Alcotest.test_case "power orderings" `Quick test_power_orderings;
         Alcotest.test_case "power vs cores" `Quick test_power_scales_with_cores;
         Alcotest.test_case "smt overhead" `Quick test_smt_power_overhead;
         Alcotest.test_case "zero data" `Quick test_zero_data_reduces_power;
         Alcotest.test_case "bandwidth contention" `Quick test_bandwidth_contention;
         Alcotest.test_case "phases" `Quick test_run_phases;
         Alcotest.test_case "phases validation" `Quick test_phases_validation;
         Alcotest.test_case "hetero validation" `Quick test_heterogeneous_validation;
         Alcotest.test_case "hetero mix" `Quick test_heterogeneous_mix;
         Alcotest.test_case "hetero determinism" `Quick test_heterogeneous_determinism;
         Alcotest.test_case "smt fairness" `Quick test_smt_fairness;
         Alcotest.test_case "counter arithmetic" `Quick test_counter_arithmetic;
         Alcotest.test_case "power trace" `Quick test_power_trace_properties;
         Alcotest.test_case "total threads" `Quick test_total_threads;
         Alcotest.test_case "sensor seeds" `Quick test_seed_changes_sensor;
         Alcotest.test_case "seed-independent kernels" `Quick
           test_seed_independent_identical;
         QCheck_alcotest.to_alcotest prop_power_monotone_in_cores ]);
      ("batch",
       [ Alcotest.test_case "hetero batch = serial" `Quick
           test_hetero_batch_matches_serial;
         Alcotest.test_case "multi-process = serial" `Quick
           test_procs_batch_matches_serial;
         Alcotest.test_case "hetero arity checked up front" `Quick
           test_hetero_batch_arity ]);
      ("period skipping",
       [ Alcotest.test_case "detects and skips" `Quick test_period_detects_and_skips;
         Alcotest.test_case "compute kernels" `Quick test_period_equiv_compute;
         Alcotest.test_case "warmup/measure windows" `Quick test_period_equiv_windows;
         Alcotest.test_case "branch patterns" `Quick test_period_equiv_branches;
         Alcotest.test_case "memory streams" `Quick test_period_equiv_memory;
         Alcotest.test_case "heterogeneous" `Quick test_period_equiv_heterogeneous;
         Alcotest.test_case "aperiodic fallback" `Quick test_period_aperiodic_fallback;
         Alcotest.test_case "non-dyadic kernels" `Quick test_period_nondyadic;
         Alcotest.test_case "training suite" `Slow test_period_training_suite ]);
      ("replay",
       [ Alcotest.test_case "bit-identity across SMT" `Quick
           test_replay_bit_identity;
         Alcotest.test_case "memory programs and seeds" `Quick
           test_replay_memory;
         Alcotest.test_case "window extrapolation" `Quick
           test_replay_window_extrapolation;
         Alcotest.test_case "replay disabled" `Quick test_replay_disabled;
         Alcotest.test_case "name-insensitive keys" `Quick
           test_replay_name_insensitive;
         QCheck_alcotest.to_alcotest prop_replay_key_one_edit ]);
      ("disk cache",
       [ Alcotest.test_case "round trip" `Quick test_disk_cache_roundtrip;
         Alcotest.test_case "shared across seeds" `Quick
           test_disk_cache_shared_across_seeds;
         Alcotest.test_case "corrupt entries skipped" `Quick
           test_disk_cache_corrupt_skipped;
         Alcotest.test_case "concurrent writers" `Quick
           test_disk_cache_concurrent_writers;
         Alcotest.test_case "replay store concurrent writers" `Quick
           test_replay_store_concurrent_writers;
         Alcotest.test_case "single flight" `Quick test_single_flight;
         Alcotest.test_case "gc size bound" `Quick test_cache_gc;
         Alcotest.test_case "MP_CACHE_MAX_MB" `Quick test_cache_gc_env;
         Alcotest.test_case "malformed MP_CACHE rejected" `Quick
           test_cache_flag_rejected;
         Alcotest.test_case "segment layout" `Quick test_disk_cache_segment_layout;
         Alcotest.test_case "replay store pruned and gc'd" `Quick
           test_replay_store_housekeeping ]);
      ("structural keys",
       [ Alcotest.test_case "equivalence classes" `Quick
           test_key_equivalence_classes;
         Alcotest.test_case "precomputed hash consistent" `Quick
           test_struct_hash_precomputed ]);
      ("batch dedup",
       [ Alcotest.test_case "scatter bit-identical" `Quick
           test_batch_dedup_scatter;
         Alcotest.test_case "hetero scatter bit-identical" `Quick
           test_hetero_batch_dedup_scatter ]);
    ]
