open Mp_codegen
open Mp_isa
open Mp_sim

type props = {
  mnemonic : string;
  derived_latency : float;
  throughput : float;
  core_ipc : float;
  epi : float;
  events_per_instr : (Mp_uarch.Pipe.unit_kind * float) list;
  units : Mp_uarch.Pipe.unit_kind list;
}

let ubench ~arch ~size ~deps ~zero_data (ins : Instruction.t) =
  let name =
    Printf.sprintf "boot-%s-%s" ins.Instruction.mnemonic
      (if deps then "dep" else "nodep")
  in
  let synth = Synthesizer.create ~name arch in
  Synthesizer.add_pass synth (Passes.skeleton ~size);
  Synthesizer.add_pass synth (Passes.fill_sequence [ ins ]);
  if Instruction.is_memory ins && not ins.Instruction.prefetch then
    Synthesizer.add_pass synth
      (Passes.memory_model [ (Mp_uarch.Cache_geometry.L1, 1.0) ]);
  Synthesizer.add_pass synth
    (Passes.dependency (if deps then Builder.Fixed 1 else Builder.No_deps));
  let policy =
    if zero_data then Builder.Constant 0L else Builder.Random_values
  in
  Synthesizer.add_pass synth (Passes.init_registers policy);
  Synthesizer.add_pass synth (Passes.init_immediates policy);
  Synthesizer.add_pass synth (Passes.rename name);
  Synthesizer.synthesize ~seed:(Hashtbl.hash name) synth

let stress_threshold = 0.20

let resolve_config ~arch config =
  match config with
  | Some c -> c
  | None -> Mp_uarch.Uarch_def.config ~cores:8 ~smt:1 arch.Arch.uarch

(* A long measured window shrinks the warmup-drain bias on the
   dependent-chain latency estimate. Twice the harness default (16
   iterations): period skipping elides the repeats, so the extra
   iterations cost almost nothing for these single-instruction
   kernels. *)
let measure_iterations = 2 * Machine.default_measure

(* Derive the properties from the two measurements — shared between the
   serial path ({!instruction_props}) and the batched {!run}, so both
   compute bit-identical results from bit-identical measurements. *)
let props_of_measurements ~machine ~config ins (nodep : Measurement.t)
    (dep : Measurement.t) =
  let core = Measurement.core_counters nodep in
  let instrs = Float.max 1.0 core.Measurement.instrs in
  let events =
    [
      (Mp_uarch.Pipe.FXU, core.Measurement.fxu /. instrs);
      (Mp_uarch.Pipe.LSU, (core.Measurement.lsu +. core.Measurement.st) /. instrs);
      (Mp_uarch.Pipe.VSU, core.Measurement.vsu /. instrs);
      (Mp_uarch.Pipe.BRU, core.Measurement.bru /. instrs);
    ]
  in
  let units =
    List.filter_map
      (fun (u, r) -> if r >= stress_threshold then Some u else None)
      events
  in
  let idle = Machine.idle_reading machine config in
  let chip_rate =
    nodep.Measurement.core_ipc
    *. float_of_int config.Mp_uarch.Uarch_def.cores
  in
  let epi =
    if chip_rate <= 0.0 then 0.0
    else Float.max 0.0 (nodep.Measurement.power -. idle) /. chip_rate
  in
  let dep_thread_ipc =
    match Array.to_list dep.Measurement.threads with
    | c :: _ -> Measurement.ipc c
    | [] -> 0.0
  in
  let nodep_thread_ipc =
    match Array.to_list nodep.Measurement.threads with
    | c :: _ -> Measurement.ipc c
    | [] -> 0.0
  in
  {
    mnemonic = ins.Instruction.mnemonic;
    derived_latency = (if dep_thread_ipc > 0.0 then 1.0 /. dep_thread_ipc else 0.0);
    throughput = nodep_thread_ipc;
    core_ipc = nodep.Measurement.core_ipc;
    epi;
    events_per_instr = events;
    units;
  }

let instruction_props ~machine ~arch ?config ?(size = 1024) ?(zero_data = false)
    ins =
  let config = resolve_config ~arch config in
  let run_one deps =
    Machine.run machine ~measure:measure_iterations config
      (ubench ~arch ~size ~deps ~zero_data ins)
  in
  let nodep = run_one false in
  let dep = run_one true in
  props_of_measurements ~machine ~config ins nodep dep

let bootstrappable (i : Instruction.t) =
  (not i.Instruction.privileged)
  && (not (Instruction.is_branch i))
  && (not i.Instruction.prefetch)
  && i.Instruction.exec_class <> Instruction.Nop_op

(* The kernels of the last [run], per instruction its nodep and dep
   kernel. A survey bootstraps the same instructions at every
   configuration, and a kernel depends only on the architecture, the
   size and the instruction, so consecutive runs over the same ones
   build each kernel once. Only the last run's kernels are kept. *)
let last_kernels :
    (Arch.t * int * (Instruction.t * Ir.t * Ir.t) list) option Atomic.t =
  Atomic.make None

let kernels ~arch ~size instrs =
  let same ks =
    List.compare_lengths ks instrs = 0
    && List.for_all2 (fun (i, _, _) ins -> i == ins) ks instrs
  in
  match Atomic.get last_kernels with
  | Some (a, s, ks) when a == arch && s = size && same ks -> ks
  | _ ->
    let ks =
      List.map
        (fun ins ->
          let nodep = ubench ~arch ~size ~deps:false ~zero_data:false ins in
          let dep = ubench ~arch ~size ~deps:true ~zero_data:false ins in
          (ins, nodep, dep))
        instrs
    in
    Atomic.set last_kernels (Some (arch, size, ks));
    ks

let run ~machine ~arch ?config ?(size = 1024) ?instructions ?pool () =
  let instrs =
    match instructions with
    | Some l -> l
    | None -> Arch.select arch bootstrappable
  in
  let config = resolve_config ~arch config in
  (* The whole characterization campaign as one batch: the nodep/dep
     pair of every instruction, in exactly the order the serial loop
     would run them — so opcode interning (and therefore every float
     summation order downstream) matches the serial path and the
     results are bit-identical to per-instruction instruction_props. *)
  let jobs =
    List.concat_map
      (fun (_, nodep, dep) -> [ (config, nodep); (config, dep) ])
      (kernels ~arch ~size instrs)
  in
  let ms = Machine.run_batch ~measure:measure_iterations ?pool machine jobs in
  let rec pair instrs ms =
    match (instrs, ms) with
    | [], [] -> []
    | ins :: instrs, nodep :: dep :: ms ->
      props_of_measurements ~machine ~config ins nodep dep :: pair instrs ms
    | _ -> assert false
  in
  pair instrs ms
