(* Tests for mp_codegen: register allocation, the pass framework, the
   synthesizer, IR validation and the emitters. *)

open Mp_codegen
open Mp_isa

let arch () = Arch.power7 ()

let find a m = Arch.find_instruction a m

let l1 = [ (Mp_uarch.Cache_geometry.L1, 1.0) ]

let contains_sub haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* ----- register allocation ------------------------------------------------ *)

let test_reg_conventions () =
  let a = Reg_alloc.create () in
  let b = Reg_alloc.base a in
  (match b with
   | Reg.Gpr i -> Alcotest.(check bool) "base range" true (i >= 8 && i <= 15)
   | _ -> Alcotest.fail "base is a GPR");
  let s = Reg_alloc.source a Instruction.Gpr in
  (match s with
   | Reg.Gpr i -> Alcotest.(check bool) "src range" true (i >= 16 && i <= 23)
   | _ -> Alcotest.fail "src is a GPR");
  let d = Reg_alloc.dest a Instruction.Vsr in
  (match d with
   | Reg.Vsr i -> Alcotest.(check bool) "vsr dest range" true (i >= 32)
   | _ -> Alcotest.fail "dest is a VSR")

let test_reg_rotation () =
  let a = Reg_alloc.create () in
  let first = Reg_alloc.dest a Instruction.Gpr in
  let seen = ref [ first ] in
  let rec spin () =
    let r = Reg_alloc.dest a Instruction.Gpr in
    if Reg.equal r first then ()
    else begin
      seen := r :: !seen;
      spin ()
    end
  in
  spin ();
  Alcotest.(check int) "full rotation over 8 dests" 8 (List.length !seen)

let test_reg_make_bounds () =
  Alcotest.(check bool) "gpr 32 rejected" true
    (try ignore (Reg.make Instruction.Gpr 32); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "vsr 63 ok" true
    (Reg.make Instruction.Vsr 63 = Reg.Vsr 63)

(* ----- synthesizer & passes ------------------------------------------------ *)

let basic_synth ?(size = 64) ?(mnemonics = [ "add" ]) ?(dep = Builder.No_deps)
    ?mem a =
  let synth = Synthesizer.create ~name:"t" a in
  Synthesizer.add_pass synth (Passes.skeleton ~size);
  Synthesizer.add_pass synth
    (Passes.fill_uniform (List.map (find a) mnemonics));
  (match mem with
   | Some d -> Synthesizer.add_pass synth (Passes.memory_model d)
   | None -> ());
  Synthesizer.add_pass synth (Passes.dependency dep);
  synth

let test_synthesize_size () =
  let a = arch () in
  let p = Synthesizer.synthesize ~seed:1 (basic_synth a) in
  Alcotest.(check int) "body size" 64 (Ir.size p);
  Alcotest.(check bool) "valid" true (Ir.validate p = Ok ())

let test_seed_determinism () =
  let a = arch () in
  let s = basic_synth ~mnemonics:[ "add"; "xor"; "mulld" ] a in
  let p1 = Synthesizer.synthesize ~seed:9 s in
  let p2 = Synthesizer.synthesize ~seed:9 s in
  Alcotest.(check bool) "identical programs" true (p1 = p2)

let test_unseeded_distinct () =
  let a = arch () in
  let s = basic_synth ~mnemonics:[ "add"; "xor"; "mulld" ] a in
  let p1 = Synthesizer.synthesize s in
  let p2 = Synthesizer.synthesize s in
  Alcotest.(check bool) "distinct mixes" true
    (Ir.instruction_mix p1 <> Ir.instruction_mix p2 || p1.Ir.body <> p2.Ir.body)

let test_pass_ordering_enforced () =
  let a = arch () in
  let synth = Synthesizer.create a in
  Synthesizer.add_pass synth (Passes.fill_uniform [ find a "add" ]);
  Alcotest.(check bool) "distribution before skeleton fails" true
    (try ignore (Synthesizer.synthesize ~seed:1 synth); false
     with Failure _ -> true)

let test_unfilled_fails () =
  let a = arch () in
  let synth = Synthesizer.create a in
  Synthesizer.add_pass synth (Passes.skeleton ~size:8);
  Alcotest.(check bool) "no distribution fails" true
    (try ignore (Synthesizer.synthesize ~seed:1 synth); false
     with Failure _ -> true)

let test_memory_pass_requires_memory_ops () =
  let a = arch () in
  let synth = basic_synth ~mnemonics:[ "add" ] a in
  Synthesizer.add_pass synth (Passes.memory_model l1);
  Alcotest.(check bool) "no memory instructions fails" true
    (try ignore (Synthesizer.synthesize ~seed:1 synth); false
     with Failure _ -> true)

let test_fill_sequence_replicates () =
  let a = arch () in
  let synth = Synthesizer.create a in
  Synthesizer.add_pass synth (Passes.skeleton ~size:10);
  Synthesizer.add_pass synth
    (Passes.fill_sequence [ find a "add"; find a "mulld" ]);
  Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
  let p = Synthesizer.synthesize ~seed:3 synth in
  Array.iteri
    (fun i (ins : Ir.instr) ->
      let expected = if i mod 2 = 0 then "add" else "mulld" in
      Alcotest.(check string) "pattern" expected ins.Ir.op.Instruction.mnemonic)
    p.Ir.body

let test_fill_interleaved_ratio () =
  let a = arch () in
  let synth = Synthesizer.create a in
  Synthesizer.add_pass synth (Passes.skeleton ~size:120);
  Synthesizer.add_pass synth
    (Passes.fill_interleaved [ (find a "add", 2); (find a "xor", 1) ]);
  Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
  let p = Synthesizer.synthesize ~seed:3 synth in
  let mix = Ir.instruction_mix p in
  Alcotest.(check int) "2/3 add" 80 (List.assoc "add" mix);
  Alcotest.(check int) "1/3 xor" 40 (List.assoc "xor" mix)

let test_fill_weighted_mix () =
  let a = arch () in
  let synth = Synthesizer.create a in
  Synthesizer.add_pass synth (Passes.skeleton ~size:2000);
  Synthesizer.add_pass synth
    (Passes.fill_weighted [ (find a "add", 0.8); (find a "xor", 0.2) ]);
  Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
  let p = Synthesizer.synthesize ~seed:5 synth in
  let mix = Ir.instruction_mix p in
  let adds = float_of_int (List.assoc "add" mix) in
  Alcotest.(check bool) "roughly 80/20" true (adds > 1500.0 && adds < 1700.0)

let test_memory_model_apportionment () =
  let a = arch () in
  let synth =
    basic_synth ~size:100 ~mnemonics:[ "lbz" ]
      ~mem:[ (Mp_uarch.Cache_geometry.L1, 0.75); (Mp_uarch.Cache_geometry.L2, 0.25) ]
      a
  in
  let p = Synthesizer.synthesize ~seed:7 synth in
  let count lvl =
    List.length
      (List.filter
         (fun (i : Ir.instr) -> i.Ir.mem_target = Some lvl)
         (Ir.memory_instructions p))
  in
  Alcotest.(check int) "75 L1" 75 (count Mp_uarch.Cache_geometry.L1);
  Alcotest.(check int) "25 L2" 25 (count Mp_uarch.Cache_geometry.L2);
  (match p.Ir.memory_distribution with
   | Some d ->
     Alcotest.(check (float 1e-9)) "recorded" 0.75
       (List.assoc Mp_uarch.Cache_geometry.L1 d)
   | None -> Alcotest.fail "distribution not recorded")

let test_dependency_wiring () =
  let a = arch () in
  let synth = basic_synth ~size:32 ~dep:(Builder.Fixed 1) a in
  let p = Synthesizer.synthesize ~seed:11 synth in
  (* every instruction after the first must consume its predecessor's
     destination *)
  let violations = ref 0 in
  Array.iteri
    (fun i (ins : Ir.instr) ->
      if i > 0 then begin
        let prev = p.Ir.body.(i - 1) in
        match (prev.Ir.dests, ins.Ir.srcs) with
        | d :: _, s :: _ -> if not (Reg.equal d s) then incr violations
        | _ -> incr violations
      end)
    p.Ir.body;
  Alcotest.(check int) "chained" 0 !violations

let test_no_deps_no_chains () =
  let a = arch () in
  let synth = basic_synth ~size:32 ~dep:Builder.No_deps a in
  let p = Synthesizer.synthesize ~seed:12 synth in
  (* sources come from the read-only pool: no source may equal any
     destination in the loop *)
  let dests =
    Array.to_list p.Ir.body |> List.concat_map (fun (i : Ir.instr) -> i.Ir.dests)
  in
  Array.iter
    (fun (ins : Ir.instr) ->
      List.iter
        (fun s ->
          Alcotest.(check bool) "source never written" false
            (List.exists (Reg.equal s) dests))
        ins.Ir.srcs)
    p.Ir.body

let test_branch_model () =
  let a = arch () in
  let synth = basic_synth ~size:100 a in
  Synthesizer.add_pass synth
    (Passes.branch_model ~bc:(find a "bc") ~frequency:0.1 ~taken_ratio:0.5
       ~pattern_length:8);
  let p = Synthesizer.synthesize ~seed:13 synth in
  let branches =
    Array.to_list p.Ir.body
    |> List.filter (fun (i : Ir.instr) -> Instruction.is_branch i.Ir.op)
  in
  Alcotest.(check int) "10% branches" 10 (List.length branches);
  List.iter
    (fun (i : Ir.instr) ->
      match i.Ir.taken_pattern with
      | None -> Alcotest.fail "branch without pattern"
      | Some pat ->
        let taken = Array.fold_left (fun acc t -> if t then acc + 1 else acc) 0 pat in
        Alcotest.(check int) "taken ratio" 4 taken)
    branches

let test_init_policies () =
  let a = arch () in
  let synth = basic_synth ~size:32 a in
  Synthesizer.add_pass synth (Passes.init_registers (Builder.Constant 0L));
  Synthesizer.add_pass synth (Passes.init_immediates (Builder.Constant 0L));
  let p = Synthesizer.synthesize ~seed:14 synth in
  Alcotest.(check (float 1e-9)) "zero data factor" 0.0 (Ir.data_activity_factor p);
  let synth2 = basic_synth ~size:32 a in
  Synthesizer.add_pass synth2 (Passes.init_registers Builder.Random_values);
  let p2 = Synthesizer.synthesize ~seed:14 synth2 in
  Alcotest.(check bool) "random data factor near half" true
    (let f = Ir.data_activity_factor p2 in
     f > 0.4 && f < 0.6)

let test_provenance () =
  let a = arch () in
  let p = Synthesizer.synthesize ~seed:15 (basic_synth a) in
  Alcotest.(check bool) "provenance recorded" true
    (List.exists (fun s -> contains_sub s "skeleton") p.Ir.provenance)

let test_synthesize_many () =
  let a = arch () in
  let ps = Synthesizer.synthesize_many ~seed:1 (basic_synth a) 10 in
  Alcotest.(check int) "ten programs" 10 (List.length ps)

(* ----- IR validation -------------------------------------------------------- *)

let test_validate_catches_missing_target () =
  let a = arch () in
  let p = Synthesizer.synthesize ~seed:16 (basic_synth ~mnemonics:[ "lbz" ] ~mem:l1 a) in
  let broken =
    { p with
      Ir.body =
        Array.map (fun (i : Ir.instr) -> { i with Ir.mem_target = None }) p.Ir.body }
  in
  Alcotest.(check bool) "invalid" true (Ir.validate broken <> Ok ())

let test_validate_catches_class_mismatch () =
  let a = arch () in
  let p = Synthesizer.synthesize ~seed:17 (basic_synth ~mnemonics:[ "fadd" ] a) in
  let broken =
    { p with
      Ir.body =
        Array.map
          (fun (i : Ir.instr) -> { i with Ir.srcs = [ Reg.Gpr 16; Reg.Gpr 17 ] })
          p.Ir.body }
  in
  Alcotest.(check bool) "invalid" true (Ir.validate broken <> Ok ())

(* ----- emitters --------------------------------------------------------------- *)

let test_emit_asm () =
  let a = arch () in
  let p = Synthesizer.synthesize ~seed:18
      (basic_synth ~size:16 ~mnemonics:[ "lbz"; "add" ] ~mem:l1 a) in
  let asm = Emit.to_asm p in
  Alcotest.(check bool) "has loop close" true (contains_sub asm "bdnz");
  Alcotest.(check bool) "has label" true (contains_sub asm "1:");
  Alcotest.(check bool) "mentions lbz" true (contains_sub asm "lbz");
  Alcotest.(check bool) "mentions memory target" true (contains_sub asm "L1")

let test_emit_c () =
  let a = arch () in
  let p = Synthesizer.synthesize ~seed:19 (basic_synth ~size:8 a) in
  let c = Emit.to_c p in
  Alcotest.(check bool) "asm volatile" true (contains_sub c "asm volatile");
  Alcotest.(check bool) "has main" true (contains_sub c "int main")

let test_operand_strings () =
  let a = arch () in
  let p = Synthesizer.synthesize ~seed:20
      (basic_synth ~size:8 ~mnemonics:[ "lbz" ] ~mem:l1 a) in
  let s = Emit.operand_string p.Ir.body.(0) in
  (* displacement form: "rX, d(rB)" *)
  Alcotest.(check bool) "displacement form" true
    (String.contains s '(' && String.contains s ')');
  let p2 = Synthesizer.synthesize ~seed:20
      (basic_synth ~size:8 ~mnemonics:[ "ldx" ] ~mem:l1 a) in
  let s2 = Emit.operand_string p2.Ir.body.(0) in
  Alcotest.(check bool) "indexed form has three operands" true
    (List.length (String.split_on_char ',' s2) = 3)

let test_custom_pass () =
  let a = arch () in
  let synth = basic_synth ~size:8 a in
  let ran = ref false in
  Synthesizer.add_pass synth
    (Passes.custom ~name:"probe" (fun b ->
         ran := Builder.size b = 8));
  ignore (Synthesizer.synthesize ~seed:1 synth);
  Alcotest.(check bool) "custom pass ran with builder access" true !ran

let test_pass_names () =
  let a = arch () in
  let synth = basic_synth ~size:8 a in
  let names = Synthesizer.pass_names synth in
  Alcotest.(check int) "three passes" 3 (List.length names);
  Alcotest.(check string) "first is skeleton" "skeleton(8)" (List.hd names)

let test_seed_independent_classification () =
  let t = Passes.seed_independent in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " independent") true (t name))
    [ "skeleton(64)"; "fill_sequence"; "fill_interleaved"; "rename(x)";
      "dependency(none)"; "dependency(4)"; "init_registers(0xdead)";
      "init_immediates(0x0)" ];
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " seed-consuming") false (t name))
    [ "fill_weighted"; "fill_uniform"; "memory_model"; "branch_model";
      "dependency(1..8)"; "init_registers(random)";
      "init_immediates(random)"; "my_custom_pass" ]

let test_reg_to_string () =
  Alcotest.(check string) "gpr" "r5" (Reg.to_string (Reg.Gpr 5));
  Alcotest.(check string) "fpr" "f31" (Reg.to_string (Reg.Fpr 31));
  Alcotest.(check string) "vsr" "vs63" (Reg.to_string (Reg.Vsr 63));
  Alcotest.(check string) "cr" "cr2" (Reg.to_string (Reg.Cr_field 2));
  Alcotest.(check string) "ctr" "ctr" (Reg.to_string Reg.Ctr)

let test_dependency_wraps_loop () =
  (* the chain carries across iterations: instruction 0 consumes the
     result of an instruction near the end of the body *)
  let a = arch () in
  let p = Synthesizer.synthesize ~seed:21
      (basic_synth ~size:16 ~mnemonics:[ "fadd" ] ~dep:(Builder.Fixed 1) a) in
  let first = p.Ir.body.(0) and last = p.Ir.body.(15) in
  (match (first.Ir.srcs, last.Ir.dests) with
   | s :: _, d :: _ ->
     Alcotest.(check bool) "wraps" true (Reg.equal s d)
   | _ -> Alcotest.fail "operands")

let prop_random_profiles_valid =
  (* arbitrary weighted mixes with memory models always wire into valid
     programs *)
  let a = arch () in
  let candidates =
    Array.of_list
      (Arch.select a (fun i ->
           (not i.Mp_isa.Instruction.privileged)
           && (not (Mp_isa.Instruction.is_branch i))
           && not i.Mp_isa.Instruction.prefetch))
  in
  QCheck.Test.make ~name:"random mixes produce valid programs" ~count:60
    QCheck.(pair small_int (int_range 2 10))
    (fun (seed, picks) ->
      let g = Mp_util.Rng.create seed in
      let weighted =
        List.init picks (fun _ ->
            (Mp_util.Rng.choose g candidates, 0.1 +. Mp_util.Rng.float g 1.0))
      in
      let synth = Synthesizer.create a in
      Synthesizer.add_pass synth (Passes.skeleton ~size:64);
      Synthesizer.add_pass synth (Passes.fill_weighted weighted);
      if List.exists (fun (i, _) -> Mp_isa.Instruction.is_memory i) weighted then
        Synthesizer.add_pass synth
          (Passes.memory_model
             [ (Mp_uarch.Cache_geometry.L1, 0.5); (Mp_uarch.Cache_geometry.L2, 0.5) ]);
      Synthesizer.add_pass synth
        (Passes.dependency (Builder.Random_range (1, 8)));
      let p = Synthesizer.synthesize ~seed synth in
      Ir.validate p = Ok ())

let prop_all_isa_instructions_synthesisable =
  (* every non-branch instruction of the shipped ISA can be placed in a
     loop and wired into a valid program *)
  let a = arch () in
  let instrs =
    Array.of_list
      (Arch.select a (fun i ->
           (not (Instruction.is_branch i)) && not i.Instruction.prefetch))
  in
  QCheck.Test.make ~name:"every instruction synthesisable" ~count:120
    QCheck.(int_range 0 (Array.length instrs - 1))
    (fun idx ->
      let ins = instrs.(idx) in
      let synth = Synthesizer.create a in
      Synthesizer.add_pass synth (Passes.skeleton ~size:8);
      Synthesizer.add_pass synth (Passes.fill_sequence [ ins ]);
      if Instruction.is_memory ins then
        Synthesizer.add_pass synth (Passes.memory_model l1);
      Synthesizer.add_pass synth (Passes.dependency (Builder.Fixed 1));
      let p = Synthesizer.synthesize ~seed:idx synth in
      Ir.validate p = Ok () && Ir.size p = 8)

let prop_one_instruction_changes_hash =
  (* the structural hash distinguishes single-instruction edits: two
     programs built from sequences differing in exactly one slot never
     share a struct hash, while rebuilding the same sequence with the
     same seed reproduces it *)
  let a = arch () in
  let instrs =
    Array.of_list
      (Arch.select a (fun i ->
           (not (Instruction.is_branch i))
           && (not i.Instruction.prefetch)
           && not (Instruction.is_memory i)))
  in
  let build seq seed =
    let synth = Synthesizer.create a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:(List.length seq));
    Synthesizer.add_pass synth (Passes.fill_sequence seq);
    Synthesizer.add_pass synth (Passes.dependency Builder.No_deps);
    Synthesizer.synthesize ~seed synth
  in
  QCheck.Test.make ~name:"one-instruction edits change the struct hash"
    ~count:100
    QCheck.(
      quad
        (int_range 0 (Array.length instrs - 1))
        (int_range 0 (Array.length instrs - 1))
        (int_range 0 15) small_int)
    (fun (i1, i2, pos, seed) ->
      QCheck.assume (i1 <> i2);
      let base = List.init 16 (fun _ -> instrs.(i1)) in
      let edited =
        List.mapi (fun k x -> if k = pos then instrs.(i2) else x) base
      in
      let p1 = build base seed in
      let p1' = build base seed in
      let p2 = build edited seed in
      Int64.equal (Ir.struct_hash p1) (Ir.struct_hash p1')
      && not (Int64.equal (Ir.struct_hash p1) (Ir.struct_hash p2)))

(* ----- golden programs ---------------------------------------------------- *)

(* Every field a measurement can see through a program, as text: name,
   body (mnemonic, dests, srcs, immediate, memory target, branch
   pattern), register initialisation and both content hashes. Folding
   it over whole suites pins every RNG draw codegen makes, in order. *)
let fold_program b (p : Ir.t) =
  let pr fmt = Printf.bprintf b fmt in
  let regs rs = String.concat "," (List.map Reg.to_string rs) in
  pr "%s %d\n" p.Ir.name (Ir.size p);
  Array.iter
    (fun (i : Ir.instr) ->
      pr "%s %s<-%s" i.Ir.op.Instruction.mnemonic (regs i.Ir.dests)
        (regs i.Ir.srcs);
      Option.iter (pr " #%Lx") i.Ir.imm;
      Option.iter
        (fun l -> pr " @%s" (Mp_uarch.Cache_geometry.level_to_string l))
        i.Ir.mem_target;
      Option.iter
        (fun pat ->
          pr " p";
          Array.iter (fun t -> pr "%d" (Bool.to_int t)) pat)
        i.Ir.taken_pattern;
      pr "\n")
    p.Ir.body;
  List.iter (fun (r, v) -> pr "%s=%Lx " (Reg.to_string r) v) p.Ir.reg_init;
  pr "\nstruct %Lx body %Lx\n" p.Ir.struct_hash p.Ir.body_hash

let digest_programs progs =
  let b = Buffer.create (1 lsl 22) in
  List.iter (fold_program b) progs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The EPI bootstrap's kernels for one configuration, built as
   [Epi.Bootstrap] builds them: a nodep and a dep kernel per
   bootstrappable instruction. *)
let bootstrap_kernels a =
  let kernel ~deps (ins : Instruction.t) =
    let name =
      Printf.sprintf "boot-%s-%s" ins.Instruction.mnemonic
        (if deps then "dep" else "nodep")
    in
    let synth = Synthesizer.create ~name a in
    Synthesizer.add_pass synth (Passes.skeleton ~size:512);
    Synthesizer.add_pass synth (Passes.fill_sequence [ ins ]);
    if Instruction.is_memory ins && not ins.Instruction.prefetch then
      Synthesizer.add_pass synth (Passes.memory_model l1);
    Synthesizer.add_pass synth
      (Passes.dependency (if deps then Builder.Fixed 1 else Builder.No_deps));
    Synthesizer.add_pass synth (Passes.init_registers Builder.Random_values);
    Synthesizer.add_pass synth (Passes.init_immediates Builder.Random_values);
    Synthesizer.add_pass synth (Passes.rename name);
    Synthesizer.synthesize ~seed:(Hashtbl.hash name) synth
  in
  let bootstrappable (i : Instruction.t) =
    (not i.Instruction.privileged)
    && (not (Instruction.is_branch i))
    && (not i.Instruction.prefetch)
    && i.Instruction.exec_class <> Instruction.Nop_op
  in
  List.concat_map
    (fun ins -> [ kernel ~deps:false ins; kernel ~deps:true ins ])
    (Arch.select a bootstrappable)

(* MD5s of [fold_program] over each suite, captured before codegen's
   hash fold and operand wiring were rewritten to allocate less: the
   rewrite must build the same programs and hash them to the same
   values. *)
let golden_bootstrap = "dea35f9731b70a97e0808e98ea0f3e9c"
let golden_table2 = "a028e589df1dd09702919f00b05ef57b"
let golden_spec = "a4828aa99532f056cfcb9b8c3742943c"

let test_golden_bootstrap () =
  let kernels = bootstrap_kernels (arch ()) in
  Alcotest.(check int) "kernels" 324 (List.length kernels);
  Alcotest.(check string) "bootstrap digest" golden_bootstrap
    (digest_programs kernels)

let test_golden_table2 () =
  let a = arch () in
  let machine = Mp_sim.Machine.create ~cache:false a.Arch.uarch in
  let fams = Mp_workloads.Training.table2 ~machine ~arch:a ~quick:true () in
  Alcotest.(check string) "quick Table-2 digest" golden_table2
    (digest_programs
       (List.map
          (fun (e : Mp_workloads.Training.entry) ->
            e.Mp_workloads.Training.program)
          (Mp_workloads.Training.all_entries fams)))

let test_golden_spec () =
  let suite = Mp_workloads.Spec.suite ~arch:(arch ()) () in
  Alcotest.(check string) "Spec digest" golden_spec
    (digest_programs
       (List.concat_map
          (fun (bm : Mp_workloads.Spec.benchmark) ->
            List.map fst bm.Mp_workloads.Spec.phases)
          suite))

let () =
  Alcotest.run "mp_codegen"
    [
      ("registers",
       [ Alcotest.test_case "conventions" `Quick test_reg_conventions;
         Alcotest.test_case "rotation" `Quick test_reg_rotation;
         Alcotest.test_case "bounds" `Quick test_reg_make_bounds ]);
      ("synthesizer",
       [ Alcotest.test_case "size" `Quick test_synthesize_size;
         Alcotest.test_case "determinism" `Quick test_seed_determinism;
         Alcotest.test_case "unseeded distinct" `Quick test_unseeded_distinct;
         Alcotest.test_case "ordering enforced" `Quick test_pass_ordering_enforced;
         Alcotest.test_case "unfilled fails" `Quick test_unfilled_fails;
         Alcotest.test_case "memory needs mem ops" `Quick test_memory_pass_requires_memory_ops;
         Alcotest.test_case "many" `Quick test_synthesize_many;
         Alcotest.test_case "provenance" `Quick test_provenance ]);
      ("passes",
       [ Alcotest.test_case "sequence" `Quick test_fill_sequence_replicates;
         Alcotest.test_case "interleaved" `Quick test_fill_interleaved_ratio;
         Alcotest.test_case "weighted" `Quick test_fill_weighted_mix;
         Alcotest.test_case "memory apportionment" `Quick test_memory_model_apportionment;
         Alcotest.test_case "dependency wiring" `Quick test_dependency_wiring;
         Alcotest.test_case "no-deps isolation" `Quick test_no_deps_no_chains;
         Alcotest.test_case "branch model" `Quick test_branch_model;
         Alcotest.test_case "init policies" `Quick test_init_policies ]);
      ("validation",
       [ Alcotest.test_case "missing target" `Quick test_validate_catches_missing_target;
         Alcotest.test_case "class mismatch" `Quick test_validate_catches_class_mismatch ]);
      ("emit",
       [ Alcotest.test_case "asm" `Quick test_emit_asm;
         Alcotest.test_case "c" `Quick test_emit_c;
         Alcotest.test_case "operand strings" `Quick test_operand_strings ]);
      ("extensibility",
       [ Alcotest.test_case "custom pass" `Quick test_custom_pass;
         Alcotest.test_case "pass names" `Quick test_pass_names;
         Alcotest.test_case "seed independence" `Quick
           test_seed_independent_classification;
         Alcotest.test_case "reg to_string" `Quick test_reg_to_string;
         Alcotest.test_case "chain wraps loop" `Quick test_dependency_wraps_loop ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_all_isa_instructions_synthesisable;
         QCheck_alcotest.to_alcotest prop_random_profiles_valid;
         QCheck_alcotest.to_alcotest prop_one_instruction_changes_hash ]);
      ("golden",
       [ Alcotest.test_case "bootstrap kernels" `Quick test_golden_bootstrap;
         Alcotest.test_case "quick Table-2 suite" `Quick test_golden_table2;
         Alcotest.test_case "Spec suite" `Quick test_golden_spec ]);
    ]
