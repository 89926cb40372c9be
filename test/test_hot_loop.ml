(* Tests for the simulator hot loop: golden digests of Core_sim.run_ex
   output that pin the dense and the period-skipped paths bit for bit,
   allocation gates on the per-cycle, per-access, per-run and per-deploy
   paths and on each layer around them (codegen, stream synthesis, SMT
   deploy, power sampling, replay lookup), the per-domain run arena's
   reuse, and the clean failure of a starved SMT thread. *)

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

(* Mixes whose instructions fall in many pipe classes (distinct pairs of
   fixed and alternate pipe kinds), so one ready list holds loads,
   stores, update forms, FXU/LSU alternates, VSU ops and branches at
   once: the issue walk's class bookkeeping and its early exit see every
   kind of entry retire, wait and block side by side. *)
let mix a ~name ?mem_mix ?(branches = false) ~dep mnemonics =
  let synth = Synthesizer.create ~name a in
  Synthesizer.add_pass synth (Passes.skeleton ~size:96);
  Synthesizer.add_pass synth
    (Passes.fill_sequence (List.map (Arch.find_instruction a) mnemonics));
  Option.iter
    (fun m -> Synthesizer.add_pass synth (Passes.memory_model m))
    mem_mix;
  if branches then
    Synthesizer.add_pass synth
      (Passes.branch_model ~bc:(Arch.find_instruction a "bc") ~frequency:0.1
         ~taken_ratio:0.7 ~pattern_length:3);
  Synthesizer.add_pass synth (Passes.dependency dep);
  Synthesizer.synthesize ~seed:5 synth

let class_mixes a =
  let open Mp_uarch.Cache_geometry in
  [ mix a ~name:"mix-mem" ~mem_mix:[ (L1, 0.6); (L2, 0.3); (L3, 0.1) ]
      ~branches:true ~dep:(Builder.Fixed 3)
      [ "ld"; "stfd"; "add"; "fadd"; "ldux"; "std"; "mulld" ];
    mix a ~name:"mix-upd" ~mem_mix:[ (L1, 0.8); (MEM, 0.2) ]
      ~dep:(Builder.Random_range (1, 6))
      [ "stdu"; "stfdux"; "lhau"; "subf"; "xvmaddadp"; "andi."; "nop" ];
    mix a ~name:"mix-alu" ~branches:true ~dep:(Builder.Fixed 1)
      [ "add"; "mulld"; "fadd"; "and"; "xvadddp"; "cmpw" ] ]

(* The pipe classes a program's instructions fall in: distinct pairs of
   (fixed pipe kinds, alternate pipe kinds), the loop-closing branch
   included. *)
let pipe_classes a (p : Ir.t) =
  let uarch = a.Arch.uarch in
  let kinds uses =
    List.sort_uniq compare
      (List.map (fun (u : Mp_uarch.Uarch_def.usage) -> u.Mp_uarch.Uarch_def.pipe)
         uses)
  in
  let of_op op =
    let r = uarch.Mp_uarch.Uarch_def.resources op in
    (kinds r.Mp_uarch.Uarch_def.fixed, kinds r.Mp_uarch.Uarch_def.alt)
  in
  List.sort_uniq compare
    (of_op (Arch.find_instruction a "bdnz")
     :: Array.to_list (Array.map (fun (i : Ir.instr) -> of_op i.Ir.op) p.Ir.body))

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

(* built once per test binary: generating it measures every program *)
let training_suite =
  let suite = ref None in
  fun a ->
    match !suite with
    | Some s -> s
    | None ->
      let machine = Machine.create ~cache:false ~replay:false a.Arch.uarch in
      let fams = Mp_workloads.Training.table2 ~machine ~arch:a ~quick:true () in
      let s =
        List.map
          (fun (e : Mp_workloads.Training.entry) ->
            e.Mp_workloads.Training.program)
          (Mp_workloads.Training.all_entries fams)
      in
      suite := Some s;
      s

(* MD5 of the text above over the whole set, captured from the previous
   implementation of the cycle loop (closures and a full pipe test per
   ready entry): any drift of the dense or the skipped path changes it.
   A change meant to alter measurements recaptures it, together with
   perfbench/reference.json. *)
let golden_digest = "cc381c0e54412493ec71206d61b113f1"

(* MD5 of [fold_run] over every program at SMT 1/2/4, dense and
   period-skipped. *)
let golden_digest_of a progs =
  let uarch = a.Arch.uarch in
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
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_activity () =
  let a = arch () in
  let progs =
    training_suite a @ level_kernels a @ compute_kernels a @ [ branchy a ]
  in
  Alcotest.(check string) "run_ex digest" golden_digest
    (golden_digest_of a progs)

(* The same over the many-class mixes, captured from the issue walk that
   examined every ready entry to the end of the list. *)
let mix_digest = "b292575b1dc2b9d3af61cb7cf3bfd1d5"

let test_golden_mixes () =
  let a = arch () in
  let mixes = class_mixes a in
  let classes =
    List.sort_uniq compare (List.concat_map (pipe_classes a) mixes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "the mixes cover %d pipe classes" (List.length classes))
    true
    (List.length classes >= 6);
  Alcotest.(check string) "run_ex digest over the mixes" mix_digest
    (golden_digest_of a mixes)

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

(* Words [f] allocates directly in the major heap (blocks too large for
   the minor heap): the major words [Gc.quick_stat] counts, less those
   promoted from the minor heap, less what the measurement itself
   costs. A domain's major allocations reach the count only at a major
   slice, so each reading first completes a major cycle. *)
let direct_major_words f =
  let direct () =
    Gc.full_major ();
    let s = Gc.quick_stat () in
    s.Gc.major_words -. s.Gc.promoted_words
  in
  let words g =
    let d0 = direct () in
    g ();
    direct () -. d0
  in
  let empty = words ignore in
  words f -. empty

(* A warm dense run takes its calendars and its packed cache from the
   domain's run arena: nothing it allocates is big enough for the major
   heap. *)
let test_warm_run_major_alloc () =
  let a = arch () in
  let uarch = a.Arch.uarch in
  let kernels =
    [ mono a ~size:64 "add";
      mono a ~size:64 ~mem_mix:[ (Mp_uarch.Cache_geometry.L2, 1.0) ] "lbz";
      List.hd (class_mixes a) ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun smt ->
          let opmap = Core_sim.opmap_create () in
          let dps = deploy_smt a ~opmap ~smt p in
          let run () =
            ignore
              (Core_sim.run ~uarch ~opmap ~warmup:1 ~measure:8 ~period:false dps)
          in
          run ();
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s smt%d: direct major words" p.Ir.name smt)
            0.0 (direct_major_words run))
        [ 1; 2; 4 ])
    kernels

(* Deploy decodes each opcode once per intern table; a re-deploy only
   maps registers, binds streams and builds the body, sharing one entry
   among instructions with equal opcode, operands and stream. Streams
   come from a prepared array, one per instruction, so the count is
   deploy's own. *)
let max_deploy_words_per_instr = 18.5

let test_deploy_alloc () =
  let a = arch () in
  let uarch = a.Arch.uarch in
  let opmap = Core_sim.opmap_create () in
  let progs =
    training_suite a @ level_kernels a @ compute_kernels a @ class_mixes a
  in
  let prepared =
    List.map
      (fun (p : Ir.t) ->
        let streams = Array.make (Ir.size p) [||] in
        List.iter
          (fun (i : Ir.instr) -> streams.(i.Ir.index) <- [| 4096 * i.Ir.index |])
          (Ir.memory_instructions p);
        (p, fun idx -> streams.(idx)))
      progs
  in
  let instrs =
    List.fold_left (fun acc (p, _) -> acc + Ir.size p + 1) 0 prepared
  in
  let deploy_all () =
    List.iter
      (fun (p, streams) -> ignore (Core_sim.deploy ~uarch ~opmap ~streams p))
      prepared
  in
  deploy_all ();
  let per_instr = minor_words deploy_all /. float_of_int instrs in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per body instruction (bound %.1f)"
       per_instr max_deploy_words_per_instr)
    true
    (per_instr <= max_deploy_words_per_instr)

(* Codegen of one 512-instruction kernel, warm: the builder's slot
   arrays, each instruction with its operand lists and immediate, the
   register initialisation, and no word per byte the content hashes
   fold. *)
let max_codegen_words = [ ("add", false, 6_800.0); ("lbz", true, 17_700.0) ]

let test_codegen_alloc () =
  let a = arch () in
  List.iter
    (fun (mnemonic, deps, bound) ->
      let dep = if deps then Builder.Fixed 1 else Builder.No_deps in
      let build () = ignore (mono a ~size:512 ~dep mnemonic) in
      build ();
      let w = minor_words build in
      Alcotest.(check bool)
        (Printf.sprintf "%s %s: %.0f minor words per kernel (bound %.0f)"
           mnemonic (if deps then "dep" else "nodep") w bound)
        true (w <= bound))
    max_codegen_words

(* The m-th and (m+p)-th instruction on a level whose pool has p lines
   walk the same addresses, so a thread's streams cost one array per
   distinct (level, m mod p), not one per memory instruction. Targets:
   512 loads on L2 (25-line pool) and 300 over all four levels. *)
let max_stream_words_per_thread = 2_150.0

let test_streams_alloc () =
  let a = arch () in
  let open Mp_uarch.Cache_geometry in
  let levels = [| L1; L2; L3; MEM |] in
  let mixes =
    [ Array.make 512 L2;
      Array.init 300 (fun i -> levels.(((i * 7) + (i / 5)) mod 4)) ]
  in
  (* minor words over every thread of SMT 1/2/4, and the thread count *)
  let draw_all () =
    let words = ref 0.0 and threads = ref 0 in
    List.iter
      (fun targets ->
        List.iter
          (fun smt ->
            let rng = Mp_util.Rng.create smt in
            for tid = 0 to smt - 1 do
              let plan =
                Mp_mem.Set_assoc_model.create ~uarch:a.Arch.uarch
                  ~partition:(tid, smt)
                  ~distribution:[ (L1, 1.0); (L2, 1.0); (L3, 1.0); (MEM, 1.0) ]
                  ()
              in
              words :=
                !words
                +. minor_words (fun () ->
                       ignore
                         (Mp_mem.Set_assoc_model.coordinated_streams plan rng
                            ~targets));
              incr threads
            done)
          [ 1; 2; 4 ])
      mixes;
    !words /. float_of_int !threads
  in
  ignore (draw_all ());
  let per_thread = draw_all () in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per thread (bound %.0f)" per_thread
       max_stream_words_per_thread)
    true
    (per_thread <= max_stream_words_per_thread)

(* An SMT-4 homogeneous memory job deploys its program once: threads 1-3
   share every instruction but the streamed ones, which bind their own
   streams, and instructions with equal operands and stream share one
   entry. Streams are drawn up front, so the count is the deploy's
   own. *)
let max_job_deploy_words_per_instr = 8.0

let test_job_deploy_alloc () =
  let a = arch () in
  let uarch = a.Arch.uarch in
  let opmap = Core_sim.opmap_create () in
  let jobs =
    [ mono a ~size:512 ~mem_mix:[ (Mp_uarch.Cache_geometry.L2, 1.0) ] "lbz";
      List.hd (class_mixes a) ]
  in
  (* each thread's coordinated streams, by body position, drawn up front *)
  let prepared =
    List.map
      (fun (p : Ir.t) ->
        let rng = Mp_util.Rng.create 4 in
        let streams =
          Array.init 4 (fun tid ->
              let plan =
                Mp_mem.Set_assoc_model.create ~uarch ~partition:(tid, 4)
                  ~distribution:(Option.get p.Ir.memory_distribution) ()
              in
              let mem = Array.of_list (Ir.memory_instructions p) in
              let s =
                Mp_mem.Set_assoc_model.coordinated_streams plan rng
                  ~targets:
                    (Array.map
                       (fun (i : Ir.instr) -> Option.get i.Ir.mem_target)
                       mem)
              in
              let by_index = Array.make (Ir.size p) [||] in
              Array.iteri
                (fun k (i : Ir.instr) ->
                  by_index.(i.Ir.index) <-
                    s.(k).Mp_mem.Set_assoc_model.addresses)
                mem;
              by_index)
        in
        (p, fun tid idx -> streams.(tid).(idx)))
      jobs
  in
  let deploy_all () =
    List.iter
      (fun (p, streams) ->
        ignore
          (Core_sim.deploy_threads ~uarch ~opmap ~streams (Array.make 4 p)))
      prepared
  in
  deploy_all ();
  let instrs =
    List.fold_left (fun acc (p, _) -> acc + (4 * (Ir.size p + 1))) 0 prepared
  in
  let per_instr = minor_words deploy_all /. float_of_int instrs in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per thread-instruction (bound %.2f)"
       per_instr max_job_deploy_words_per_instr)
    true
    (per_instr <= max_job_deploy_words_per_instr)

(* Dense runs of the training suite's first programs, a level kernel and
   a mix, at SMT 1 and 2, on one intern table: the activities the
   sample and replay gates read. *)
let sample_runs a =
  let uarch = a.Arch.uarch in
  let opmap = Core_sim.opmap_create () in
  let progs =
    (List.filteri (fun i _ -> i < 6) (training_suite a))
    @ [ List.nth (level_kernels a) 1 ] @ class_mixes a
  in
  ( opmap,
    List.concat_map
      (fun p ->
        List.map
          (fun smt ->
            let dps = deploy_smt a ~opmap ~smt p in
            (p, smt, Core_sim.run_ex ~uarch ~opmap ~warmup:1 ~measure:8 dps))
          [ 1; 2 ])
      progs )

(* A sample sums opcode and transition energies by intern id in name
   order, from a per-domain memo with scratch arrays for ordering the
   transitions: what it allocates is the 24-sample trace and its
   reading. *)
let max_sample_words = 320.0

let test_power_sample_alloc () =
  let a = arch () in
  let opmap, runs = sample_runs a in
  let table = Energy_table.power7 in
  let config = Mp_uarch.Uarch_def.config ~cores:4 ~smt:2 a.Arch.uarch in
  let sample_all () =
    List.iter
      (fun (_, _, (activity, _)) ->
        ignore
          (Power_sim.sample ~table ~rng:(Mp_util.Rng.create 1) ~config ~opmap
             ~activity ()))
      runs
  in
  sample_all ();
  let per_sample = minor_words sample_all /. float_of_int (List.length runs) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per sample (bound %.0f)" per_sample
       max_sample_words)
    true
    (per_sample <= max_sample_words)

(* A replay hit merges the base and k periods of name-sorted lists and
   interns each distinct name once: its words are the reified activity
   and the merge's arrays. Hits at the recorded window (k = 0) and at a
   window two periods longer. *)
let max_find_words = 1_960.0

let test_replay_find_alloc () =
  let a = arch () in
  let opmap, runs = sample_runs a in
  let table = Replay.create () in
  let keyed =
    List.mapi
      (fun i ((p : Ir.t), smt, (activity, pd)) ->
        let key = Printf.sprintf "%d-%s-%d" i p.Ir.name smt in
        Replay.record table ~opmap ~measure:8 key activity pd;
        let longer =
          match pd with
          | Some d -> 8 + (2 * d.Core_sim.pd_period_iters)
          | None -> 8
        in
        (key, activity.Core_sim.daf, longer))
      runs
  in
  let hits = ref 0 in
  let find_all () =
    List.iter
      (fun (key, daf, longer) ->
        List.iter
          (fun measure ->
            match Replay.find table ~opmap ~daf ~warmup:1 ~measure key with
            | Some _ -> incr hits
            | None -> Alcotest.fail ("replay missed " ^ key))
          [ 8; longer ])
      keyed
  in
  find_all ();
  hits := 0;
  let words = minor_words find_all in
  let per_hit = words /. float_of_int !hits in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per hit over %d hits (bound %.0f)"
       per_hit !hits max_find_words)
    true
    (per_hit <= max_find_words)

(* ----- the run arena ---------------------------------------------------- *)

let digest_run ~uarch ~opmap ?(measure = 12) dps =
  let b = Buffer.create 4096 in
  fold_run b (Core_sim.run_ex ~uarch ~opmap ~warmup:1 ~measure dps);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* [f ()] on a domain that has never run the simulator *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

(* A starved run raises out of the cycle loop with its arena half
   used; the next run on that domain must not see any of it. *)
let test_run_after_starvation () =
  let a = arch () in
  let uarch = a.Arch.uarch in
  let p = List.hd (class_mixes a) in
  let run () =
    let opmap = Core_sim.opmap_create () in
    digest_run ~uarch ~opmap (deploy_smt a ~opmap ~smt:2 p)
  in
  let opmap = Core_sim.opmap_create () in
  let starved = deploy_smt a ~opmap ~smt:2 (mono a ~size:64 "dadd") in
  (match Core_sim.run ~uarch ~opmap starved with
   | _ -> Alcotest.fail "the dadd run did not starve"
   | exception Failure _ -> ());
  let here = run () in
  Alcotest.(check string) "after a starved run = on a fresh domain"
    (on_fresh_domain run) here

(* Reset must leave exactly the state create does, for both models:
   same contents (digest and fingerprint), zero counters, and a
   prefetcher that has seen no access — checked both straight after the
   reset and after the same access sequence replayed on both. *)
let test_cache_reset () =
  let a = arch () in
  let uarch = a.Arch.uarch in
  let accesses c =
    for i = 0 to 19_999 do
      let addr =
        match (i / 64) mod 3 with
        | 0 -> i * 128
        | 1 -> (i land 63) * 4096
        | _ -> (i * 7919 * 128) land ((64 lsl 20) - 1)
      in
      ignore (Cache_sim.access c ~addr ~store:(i land 7 = 0))
    done
  in
  let state c =
    let b = Buffer.create 256 in
    Cache_sim.add_fingerprint c b;
    let fp = Digest.to_hex (Digest.string (Buffer.contents b)) in
    Printf.sprintf "fp %s digest %s hits %s pf %d streak %d consistent %b" fp
      (match Cache_sim.rolling_digest c with
       | Some d -> string_of_int d
       | None -> "-")
      (String.concat ","
         (List.map
            (fun l -> string_of_int (Cache_sim.hits c l))
            Mp_uarch.Cache_geometry.all_levels))
      (Cache_sim.prefetches_issued c) (Cache_sim.prefetch_streak c)
      (Cache_sim.digest_consistent c)
  in
  List.iter
    (fun model ->
      let name = Cache_sim.model_to_string model in
      let used = Cache_sim.create ~model uarch in
      accesses used;
      Cache_sim.reset used;
      let fresh = Cache_sim.create ~model uarch in
      Alcotest.(check string) (name ^ ": reset = create") (state fresh)
        (state used);
      accesses used;
      accesses fresh;
      Alcotest.(check string) (name ^ ": the same accesses after")
        (state fresh) (state used))
    Cache_sim.[ Packed; List_ref ]

(* One domain whose arena sees the SMT width and the cache model change
   under it, run for run, gives what a fresh domain gives each time. *)
let test_arena_alternation () =
  let a = arch () in
  let uarch = a.Arch.uarch in
  let p = List.hd (class_mixes a) in
  let run smt () =
    let opmap = Core_sim.opmap_create () in
    digest_run ~uarch ~opmap ~measure:6 (deploy_smt a ~opmap ~smt p)
  in
  Fun.protect
    ~finally:(fun () -> Unix.putenv "MP_CACHE_MODEL" "")
    (fun () ->
      List.iter
        (fun (smt, model) ->
          Unix.putenv "MP_CACHE_MODEL" model;
          let here = run smt () in
          Alcotest.(check string)
            (Printf.sprintf "smt%d %s: this domain = a fresh one" smt model)
            (on_fresh_domain (run smt)) here)
        [ (4, "packed"); (1, "packed"); (4, "packed"); (4, "list");
          (1, "list"); (4, "packed"); (2, "packed") ])

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
           test_golden_activity;
         Alcotest.test_case "many-class mixes digest" `Quick
           test_golden_mixes ]);
      ("allocation",
       [ Alcotest.test_case "cache access" `Quick test_cache_access_alloc;
         Alcotest.test_case "dense run" `Quick test_dense_run_alloc;
         Alcotest.test_case "warm dense run, major heap" `Quick
           test_warm_run_major_alloc;
         Alcotest.test_case "deploy" `Quick test_deploy_alloc;
         Alcotest.test_case "codegen" `Quick test_codegen_alloc;
         Alcotest.test_case "coordinated streams" `Quick test_streams_alloc;
         Alcotest.test_case "smt job deploy" `Quick test_job_deploy_alloc;
         Alcotest.test_case "power sample" `Quick test_power_sample_alloc;
         Alcotest.test_case "replay find" `Quick test_replay_find_alloc ]);
      ("arena",
       [ Alcotest.test_case "run after a starved run" `Quick
           test_run_after_starvation;
         Alcotest.test_case "cache reset = create" `Quick test_cache_reset;
         Alcotest.test_case "smt and cache model alternation" `Quick
           test_arena_alternation ]);
      ("starvation",
       [ Alcotest.test_case "smt2 dadd fails fast" `Quick
           test_smt_starvation_fails;
         Alcotest.test_case "bootstrap at smt2 fails fast" `Quick
           test_bootstrap_starvation_fails ]);
    ]
