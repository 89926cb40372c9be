(* Tests for the simulator hot loop: a golden digest of Core_sim.run_ex
   output that pins the dense and the period-skipped paths bit for bit,
   allocation gates on the per-cycle and per-access paths, and the
   clean failure of a starved SMT thread. *)

open Mp_codegen
open Mp_sim

let arch () = Arch.power7 ()

let mono a ?(size = 512) ?(dep = Builder.No_deps) ?mem_mix mnemonic =
  let ins = Arch.find_instruction a mnemonic in
  let synth = Synthesizer.create ~name:("t-" ^ mnemonic) a in
  Synthesizer.add_pass synth (Passes.skeleton ~size);
  Synthesizer.add_pass synth (Passes.fill_sequence [ ins ]);
  if Mp_isa.Instruction.is_memory ins then
    Synthesizer.add_pass synth
      (Passes.memory_model
         (Option.value ~default:[ (Mp_uarch.Cache_geometry.L1, 1.0) ] mem_mix));
  Synthesizer.add_pass synth (Passes.dependency dep);
  Synthesizer.synthesize ~seed:77 synth

let branchy a =
  let synth = Synthesizer.create ~name:"branchy" a in
  Synthesizer.add_pass synth (Passes.skeleton ~size:128);
  Synthesizer.add_pass synth
    (Passes.fill_sequence
       [ Arch.find_instruction a "add"; Arch.find_instruction a "fadd" ]);
  Synthesizer.add_pass synth
    (Passes.branch_model ~bc:(Arch.find_instruction a "bc") ~frequency:0.2
       ~taken_ratio:0.6 ~pattern_length:5);
  Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
  Synthesizer.synthesize ~seed:31 synth

let level_kernels a =
  List.map
    (fun lvl -> mono a ~size:64 ~mem_mix:[ (lvl, 1.0) ] "ld")
    Mp_uarch.Cache_geometry.[ L1; L2; L3; MEM ]

(* short compute loops whose steady state repeats inside the window, so
   the period-skipped path runs too; integer, non-dyadic, dual-pipe,
   store-port and dependent-chain cases *)
let compute_kernels a =
  mono a ~size:64 ~dep:(Builder.Fixed 1) "fadd"
  :: List.map (mono a ~size:64) [ "add"; "mulld"; "andi."; "fadd"; "stfd" ]

(* One copy of [p] per hardware thread, deployed as Machine deploys it:
   memory programs draw per-thread address streams from the thread's
   share of the SMT partition. *)
let deploy_smt a ~opmap ~smt (p : Ir.t) =
  let uarch = a.Arch.uarch in
  let rng = Mp_util.Rng.create (Hashtbl.hash (p.Ir.name, smt)) in
  Array.init smt (fun tid ->
      let streams =
        match p.Ir.memory_distribution with
        | None -> []
        | Some distribution ->
          let plan =
            Mp_mem.Set_assoc_model.create ~uarch ~partition:(tid, smt)
              ~distribution ()
          in
          let targeted =
            List.filter
              (fun (i : Ir.instr) -> i.Ir.mem_target <> None)
              (Ir.memory_instructions p)
          in
          let targets =
            Array.of_list
              (List.map (fun (i : Ir.instr) -> Option.get i.Ir.mem_target)
                 targeted)
          in
          let s =
            Mp_mem.Set_assoc_model.coordinated_streams plan rng ~targets
          in
          List.mapi
            (fun k (i : Ir.instr) ->
              (i.Ir.index, s.(k).Mp_mem.Set_assoc_model.addresses))
            targeted
      in
      Core_sim.deploy ~uarch ~opmap
        ~streams:(fun idx -> List.assoc idx streams)
        p)

(* ----- golden activity ---------------------------------------------------- *)

(* Everything run_ex returns, as text: per-thread counters as float bit
   patterns, every nonzero opcode issue count, level loads, switch
   events, transitions, prefetches and the captured period delta. *)
let fold_run b (activity, delta) =
  let open Core_sim in
  let pr fmt = Printf.bprintf b fmt in
  pr "cyc %d daf %Lx pf %d sw %d\n" activity.measured_cycles
    (Int64.bits_of_float activity.daf) activity.prefetches
    activity.switch_events;
  Array.iter
    (fun (c : Measurement.counters) ->
      List.iter
        (fun x -> pr "%Lx," (Int64.bits_of_float x))
        Measurement.
          [ c.cycles; c.instrs; c.dispatched; c.fxu; c.lsu; c.vsu; c.bru;
            c.st; c.l1; c.l2; c.l3; c.mem ];
      pr "\n")
    activity.threads;
  Array.iteri (fun i n -> if n <> 0 then pr "op %d:%d " i n) activity.op_issues;
  Array.iter (pr "lvl %d ") activity.level_loads;
  List.iter (fun (p, n, k) -> pr "tr %d>%d:%d " p n k) activity.transitions;
  pr "\n";
  match delta with
  | None -> pr "no delta\n"
  | Some d ->
    pr "delta %d %d %d sw %d pf %d\n" d.pd_period_iters d.pd_cycles
      d.pd_min_total d.pd_switch d.pd_prefetches;
    Array.iter
      (fun row -> Array.iter (pr "%d,") row; pr "\n")
      d.pd_counters;
    List.iter (fun (i, n) -> pr "op %d:%d " i n) d.pd_op_issues;
    Array.iter (pr "lvl %d ") d.pd_level_loads;
    List.iter (fun (p, n, k) -> pr "tr %d>%d:%d " p n k) d.pd_transitions;
    pr "\n"

let training_suite a =
  let machine = Machine.create ~cache:false ~replay:false a.Arch.uarch in
  let fams = Mp_workloads.Training.table2 ~machine ~arch:a ~quick:true () in
  List.map
    (fun (e : Mp_workloads.Training.entry) -> e.Mp_workloads.Training.program)
    (Mp_workloads.Training.all_entries fams)

(* MD5 of the text above over the whole set, captured from the previous
   implementation of the cycle loop (closures and a full pipe test per
   ready entry): any drift of the dense or the skipped path changes it.
   A change meant to alter measurements recaptures it, together with
   perfbench/reference.json. *)
let golden_digest = "cc381c0e54412493ec71206d61b113f1"

let test_golden_activity () =
  let a = arch () in
  let uarch = a.Arch.uarch in
  let progs =
    training_suite a @ level_kernels a @ compute_kernels a @ [ branchy a ]
  in
  let b = Buffer.create (1 lsl 20) in
  List.iteri
    (fun i p ->
      List.iter
        (fun smt ->
          List.iter
            (fun period ->
              (* a fresh intern table per run: opcode ids depend only on
                 this program's deploy order *)
              let opmap = Core_sim.opmap_create () in
              let dps = deploy_smt a ~opmap ~smt p in
              Printf.bprintf b "== %d %s smt%d %b\n" i p.Ir.name smt period;
              fold_run b
                (Core_sim.run_ex ~uarch ~opmap ~warmup:1 ~measure:12 ~period
                   dps))
            [ false; true ])
        [ 1; 2; 4 ])
    progs;
  Alcotest.(check string) "run_ex digest" golden_digest
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ----- allocation gates --------------------------------------------------- *)

(* Minor words [f] allocates on this domain, less what the measurement
   itself costs (the boxed float of the first reading). *)
let minor_words f =
  let words g =
    let w0 = Gc.minor_words () in
    g ();
    Gc.minor_words () -. w0
  in
  let empty = words ignore in
  words f -. empty

let test_cache_access_alloc () =
  let a = arch () in
  let c = Cache_sim.create ~model:Cache_sim.Packed a.Arch.uarch in
  (* blocks of 32 accesses, rotating between a sequential walk (the
     prefetcher streams), 64 lines on one L1 set (L1 thrash, L2 hits)
     and a strided sweep over 64 MB (misses and evictions at every
     level); every eighth access is a store *)
  let access i =
    let addr =
      match (i / 32) mod 3 with
      | 0 -> i * 128
      | 1 -> (i land 63) * 4096
      | _ -> (i * 7919 * 128) land ((64 lsl 20) - 1)
    in
    ignore (Cache_sim.access c ~addr ~store:(i land 7 = 0))
  in
  for i = 0 to 9_999 do access i done;
  let w = minor_words (fun () -> for i = 0 to 99_999 do access i done) in
  Alcotest.(check (float 0.0)) "minor words over 100k accesses" 0.0 w;
  List.iter
    (fun lvl ->
      Alcotest.(check bool) "the mix sourced from every level" true
        (Cache_sim.hits c lvl > 0))
    Mp_uarch.Cache_geometry.[ L1; L2; L3; MEM ];
  Alcotest.(check bool) "the prefetcher fired" true
    (Cache_sim.prefetches_issued c > 0)

(* Per-run set-up allocates; the cycle loop must not, so a dense run
   allocates exactly as much at 64 measured iterations as at 8. *)
let test_dense_run_alloc () =
  let a = arch () in
  let uarch = a.Arch.uarch in
  let kernels =
    [ mono a ~size:64 "add"; mono a ~size:64 ~dep:(Builder.Fixed 1) "fadd";
      mono a ~size:64 "mulld"; mono a ~size:64 "stfd";
      mono a ~size:64 ~mem_mix:[ (Mp_uarch.Cache_geometry.L2, 1.0) ] "lbz";
      mono a ~size:64 ~mem_mix:[ (Mp_uarch.Cache_geometry.MEM, 1.0) ] "ld";
      branchy a ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun smt ->
          let opmap = Core_sim.opmap_create () in
          let dps = deploy_smt a ~opmap ~smt p in
          let run measure () =
            ignore
              (Core_sim.run ~uarch ~opmap ~warmup:1 ~measure ~period:false dps)
          in
          run 8 ();
          let short = minor_words (run 8) in
          let long = minor_words (run 64) in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s smt%d: words at measure 64 = at 8" p.Ir.name
               smt)
            short long)
        [ 1; 2; 4 ])
    kernels

(* ----- starvation --------------------------------------------------------- *)

(* dadd holds a VSU instance for two cycles, so both instances free on
   every second cycle; with two threads the rotating issue priority
   hands every such cycle to thread 0. Thread 1 holds ready work it can
   never issue: the run must fail, and fast, rather than spin. *)
let test_smt_starvation_fails () =
  let a = arch () in
  let uarch = a.Arch.uarch in
  let opmap = Core_sim.opmap_create () in
  let dps = deploy_smt a ~opmap ~smt:2 (mono a ~size:64 "dadd") in
  let t0 = Unix.gettimeofday () in
  let msg =
    match Core_sim.run ~uarch ~opmap dps with
    | _ -> None
    | exception Failure m -> Some m
  in
  let dt = Unix.gettimeofday () -. t0 in
  (match msg with
   | None -> Alcotest.fail "starved run returned"
   | Some m ->
     Alcotest.(check bool) ("names the thread: " ^ m) true
       (String.starts_with ~prefix:"Core_sim: thread 1 starved" m));
  Alcotest.(check bool) (Printf.sprintf "fails within a second (%.3f s)" dt)
    true (dt < 1.0)

(* The same starvation through the EPI bootstrap, which measures every
   instruction at the configuration it is given. *)
let test_bootstrap_starvation_fails () =
  let a = arch () in
  let machine = Machine.create ~cache:false ~replay:false a.Arch.uarch in
  let config = Mp_uarch.Uarch_def.config ~cores:1 ~smt:2 a.Arch.uarch in
  let t0 = Unix.gettimeofday () in
  let failed =
    match
      Mp_epi.Bootstrap.run ~machine ~arch:a ~config ~size:64
        ~instructions:[ Arch.find_instruction a "dadd" ] ()
    with
    | _ -> false
    | exception Failure m -> String.starts_with ~prefix:"Core_sim: thread" m
  in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "bootstrap raises the starvation failure" true failed;
  Alcotest.(check bool) (Printf.sprintf "fails within a second (%.3f s)" dt)
    true (dt < 1.0)

let () =
  Alcotest.run "hot_loop"
    [
      ("golden",
       [ Alcotest.test_case "run_ex activity digest" `Quick
           test_golden_activity ]);
      ("allocation",
       [ Alcotest.test_case "cache access" `Quick test_cache_access_alloc;
         Alcotest.test_case "dense run" `Quick test_dense_run_alloc ]);
      ("starvation",
       [ Alcotest.test_case "smt2 dadd fails fast" `Quick
           test_smt_starvation_fails;
         Alcotest.test_case "bootstrap at smt2 fails fast" `Quick
           test_bootstrap_starvation_fails ]);
    ]
