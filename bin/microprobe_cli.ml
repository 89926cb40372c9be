(* microprobe — command-line front end to the framework.

   Sub-commands:
     list-isa    print the instruction registry (with filters)
     isa-text    dump the ISA definition in the text-file format
     generate    synthesize a micro-benchmark and emit asm/C
     measure     synthesize, deploy and measure a micro-benchmark
     bootstrap   derive latency/throughput/units/EPI for instructions
     stressmark  run a compact max-power search
     mp-cache    disk measurement-cache housekeeping (gc, stat)
     mem-stat    per-level histogram of the last membench run
*)

open Microprobe
open Cmdliner

let arch = lazy (get_architecture "POWER7")

(* ----- shared argument parsing ------------------------------------------- *)

let parse_mix arch_v s =
  (* "add:2,mulld:1" or "add,mulld" *)
  String.split_on_char ',' s
  |> List.filter (fun x -> String.trim x <> "")
  |> List.map (fun item ->
         match String.split_on_char ':' (String.trim item) with
         | [ m ] -> (Arch.find_instruction arch_v m, 1.0)
         | [ m; w ] -> (Arch.find_instruction arch_v m, float_of_string w)
         | _ -> failwith ("bad mix item: " ^ item))

let parse_mem s =
  (* "L1:50,L2:50" *)
  String.split_on_char ',' s
  |> List.filter (fun x -> String.trim x <> "")
  |> List.map (fun item ->
         match String.split_on_char ':' (String.trim item) with
         | [ l; w ] ->
           (match Cache_geometry.level_of_string (String.trim l) with
            | Some level -> (level, float_of_string w)
            | None -> failwith ("bad level: " ^ l))
         | _ -> failwith ("bad memory item: " ^ item))

let build_program ~mix ~mem ~dep ~size ~seed ~zero_data =
  let a = Lazy.force arch in
  let weighted = parse_mix a mix in
  let synth = Synthesizer.create ~name:"cli" a in
  Synthesizer.add_pass synth (Passes.skeleton ~size);
  Synthesizer.add_pass synth (Passes.fill_weighted weighted);
  (match mem with
   | "" ->
     if List.exists (fun (i, _) -> Instruction.is_memory i) weighted then
       Synthesizer.add_pass synth
         (Passes.memory_model [ (Cache_geometry.L1, 1.0) ])
   | spec -> Synthesizer.add_pass synth (Passes.memory_model (parse_mem spec)));
  let dep_mode =
    match dep with
    | 0 -> Builder.No_deps
    | d when d > 0 -> Builder.Fixed d
    | _ -> Builder.Random_range (1, 8)
  in
  Synthesizer.add_pass synth (Passes.dependency dep_mode);
  let policy =
    if zero_data then Builder.Constant 0L else Builder.Random_values
  in
  Synthesizer.add_pass synth (Passes.init_registers policy);
  Synthesizer.add_pass synth (Passes.init_immediates policy);
  Synthesizer.synthesize ~seed synth

(* common options *)
let size_t =
  Arg.(value & opt int 4096 & info [ "size" ] ~docv:"N" ~doc:"Loop body size.")

let seed_t =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Generation seed.")

let mix_t =
  Arg.(
    value
    & opt string "add"
    & info [ "mix" ] ~docv:"SPEC"
        ~doc:"Instruction mix, e.g. $(b,add:2,mulld:1).")

let mem_t =
  Arg.(
    value
    & opt string ""
    & info [ "mem" ] ~docv:"SPEC"
        ~doc:"Memory distribution, e.g. $(b,L1:50,L2:50). Levels: L1 L2 L3 MEM.")

let dep_t =
  Arg.(
    value
    & opt int 0
    & info [ "dep" ] ~docv:"D"
        ~doc:"Dependency distance: 0 = none, -1 = random, d>0 = fixed.")

let zero_data_t =
  Arg.(value & flag & info [ "zero-data" ] ~doc:"Initialise data to zero.")

let cores_t =
  Arg.(value & opt int 8 & info [ "cores" ] ~docv:"N" ~doc:"Enabled cores (1-8).")

let smt_t =
  Arg.(value & opt int 1 & info [ "smt" ] ~docv:"K" ~doc:"SMT mode (1, 2 or 4).")

(* ----- list-isa ------------------------------------------------------------ *)

let list_isa filter =
  let a = Lazy.force arch in
  let pred (i : Instruction.t) =
    match filter with
    | "" -> true
    | "load" -> Instruction.is_load i
    | "store" -> Instruction.is_store i
    | "memory" -> Instruction.is_memory i
    | "vector" -> Instruction.is_vector i
    | "float" -> Instruction.is_float i
    | "integer" -> Instruction.is_integer i
    | "branch" -> Instruction.is_branch i
    | other -> failwith ("unknown filter: " ^ other)
  in
  let table =
    Util.Text_table.create
      [ "Mnemonic"; "Class"; "Form"; "Width"; "Units"; "Peak IPC";
        "Description" ]
  in
  List.iter
    (fun (i : Instruction.t) ->
      if pred i then
        Util.Text_table.add_row table
          [ i.Instruction.mnemonic;
            Instruction.exec_class_to_string i.Instruction.exec_class;
            Instruction.form_to_string i.Instruction.form;
            string_of_int i.Instruction.width;
            String.concat "+"
              (List.map Pipe.unit_to_string
                 (Uarch_def.units_stressed a.Arch.uarch i));
            Printf.sprintf "%.2f" (Uarch_def.peak_ipc a.Arch.uarch i);
            i.Instruction.description ])
    (Isa_def.instructions a.Arch.isa);
  Util.Text_table.print table;
  0

let list_isa_cmd =
  let filter =
    Arg.(
      value & opt string ""
      & info [ "filter" ] ~docv:"KIND"
          ~doc:"Only list $(docv): load, store, memory, vector, float, \
                integer or branch.")
  in
  Cmd.v (Cmd.info "list-isa" ~doc:"Print the instruction registry")
    Term.(const list_isa $ filter)

(* ----- isa-text ------------------------------------------------------------- *)

let isa_text () =
  print_string (Power_isa.definition_text ());
  0

let isa_text_cmd =
  Cmd.v
    (Cmd.info "isa-text" ~doc:"Dump the ISA definition in the text-file format")
    Term.(const isa_text $ const ())

(* ----- generate --------------------------------------------------------------- *)

let generate mix mem dep size seed zero_data emit_c out =
  let p = build_program ~mix ~mem ~dep ~size ~seed ~zero_data in
  let text = if emit_c then Emit.to_c p else Emit.to_asm p in
  (match out with
   | "" -> print_string text
   | file ->
     let oc = open_out file in
     output_string oc text;
     close_out oc;
     Printf.printf "wrote %s (%d instructions)\n" file (Ir.size p));
  0

let generate_cmd =
  let emit_c =
    Arg.(value & flag & info [ "c" ] ~doc:"Emit a C harness instead of asm.")
  in
  let out =
    Arg.(value & opt string "" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write to $(docv) instead of stdout.")
  in
  Cmd.v (Cmd.info "generate" ~doc:"Synthesize a micro-benchmark")
    Term.(
      const generate $ mix_t $ mem_t $ dep_t $ size_t $ seed_t $ zero_data_t
      $ emit_c $ out)

(* ----- measure ------------------------------------------------------------------ *)

let measure mix mem dep size seed zero_data cores smt =
  let a = Lazy.force arch in
  let p = build_program ~mix ~mem ~dep ~size ~seed ~zero_data in
  let machine = Machine.create a.Arch.uarch in
  let config = Uarch_def.config ~cores ~smt a.Arch.uarch in
  let m = Machine.run machine config p in
  let c = Measurement.core_counters m in
  Printf.printf "configuration   : %s\n" (Uarch_def.config_to_string config);
  Printf.printf "core IPC        : %.3f\n" m.Measurement.core_ipc;
  Printf.printf "chip power      : %.2f (idle %.2f)\n" m.Measurement.power
    (Machine.idle_reading machine config);
  List.iter
    (fun id ->
      Printf.printf "%-15s : %.0f\n" (Pmc.name id) (Measurement.read c id))
    Pmc.all;
  0

let measure_cmd =
  Cmd.v
    (Cmd.info "measure" ~doc:"Synthesize, deploy and measure a micro-benchmark")
    Term.(
      const measure $ mix_t $ mem_t $ dep_t $ size_t $ seed_t $ zero_data_t
      $ cores_t $ smt_t)

(* ----- bootstrap ----------------------------------------------------------------- *)

let bootstrap mnemonics =
  let a = Lazy.force arch in
  let machine = Machine.create a.Arch.uarch in
  let instructions =
    match mnemonics with
    | [] -> None
    | ms -> Some (List.map (Arch.find_instruction a) ms)
  in
  let props = Epi.Bootstrap.run ~machine ~arch:a ?instructions () in
  let table =
    Util.Text_table.create
      [ "Instr."; "Latency"; "Thread IPC"; "Core IPC"; "EPI"; "Units" ]
  in
  List.iter
    (fun (p : Epi.Bootstrap.props) ->
      Util.Text_table.add_row table
        [ p.Epi.Bootstrap.mnemonic;
          Printf.sprintf "%.1f" p.Epi.Bootstrap.derived_latency;
          Printf.sprintf "%.2f" p.Epi.Bootstrap.throughput;
          Printf.sprintf "%.2f" p.Epi.Bootstrap.core_ipc;
          Printf.sprintf "%.3f" p.Epi.Bootstrap.epi;
          String.concat "+"
            (List.map Pipe.unit_to_string p.Epi.Bootstrap.units) ])
    props;
  Util.Text_table.print table;
  0

let bootstrap_cmd =
  let mnemonics =
    Arg.(value & pos_all string [] & info [] ~docv:"MNEMONIC"
           ~doc:"Instructions to bootstrap (default: the whole ISA).")
  in
  Cmd.v
    (Cmd.info "bootstrap"
       ~doc:"Derive latency, throughput, units and EPI from measurements")
    Term.(const bootstrap $ mnemonics)

(* ----- stressmark ----------------------------------------------------------------- *)

let stressmark subsample =
  let a = Lazy.force arch in
  let machine = Machine.create a.Arch.uarch in
  let pool =
    [ "mulldo"; "mullw"; "lxvw4x"; "lxvd2x"; "xvnmsubmdp"; "xvmaddadp" ]
  in
  Printf.printf "bootstrapping candidates...\n%!";
  let props =
    Epi.Bootstrap.run ~machine ~arch:a
      ~instructions:(List.map (Arch.find_instruction a) pool)
      ()
  in
  let picks = Stressmark.microprobe_instructions ~isa:a.Arch.isa props in
  Printf.printf "per-unit IPCxEPI picks: %s\n%!"
    (String.concat ", "
       (List.map (fun (i : Instruction.t) -> i.Instruction.mnemonic) picks));
  let space =
    Stressmark.exhaustive_sequences picks ~length:6
    |> List.filteri (fun i _ -> i mod max 1 subsample = 0)
  in
  Printf.printf "searching %d sequences x 3 SMT modes...\n%!"
    (List.length space);
  let s = Stressmark.evaluate_set ~machine ~arch:a ~name:"cli" space in
  Printf.printf
    "power range %.1f .. %.1f; best %.1f with [%s] on SMT%d\n"
    s.Stressmark.min_power s.Stressmark.max_power
    s.Stressmark.best.Stressmark.power
    (String.concat ", " s.Stressmark.best.Stressmark.sequence)
    s.Stressmark.best.Stressmark.smt;
  0

let stressmark_cmd =
  let subsample =
    Arg.(value & opt int 3 & info [ "subsample" ] ~docv:"K"
           ~doc:"Evaluate every $(docv)-th sequence (1 = exhaustive).")
  in
  Cmd.v (Cmd.info "stressmark" ~doc:"Run a compact max-power search")
    Term.(const stressmark $ subsample)

(* ----- mp-cache ------------------------------------------------------------------ *)

let mib = 1024.0 *. 1024.0

let cache_gc dir max_mb =
  let dir =
    match dir with
    | "" ->
      (match Measurement_cache.env_disk () with
       | Some d -> d.Measurement_cache.dir
       | None -> "_mp_cache")
    | d -> d
  in
  let max_bytes =
    match max_mb with
    | Some mb when mb > 0.0 -> Some (int_of_float (mb *. mib))
    | Some _ -> None
    | None -> Measurement_cache.env_max_bytes ()
  in
  match max_bytes with
  | None ->
    prerr_endline
      "mp-cache gc: no size bound given (pass --max-mb or set MP_CACHE_MAX_MB)";
    2
  | Some b ->
    if not (Sys.file_exists dir) then begin
      Printf.printf "%s: no cache directory, nothing to do\n" dir;
      0
    end
    else begin
      let s = Measurement_cache.gc ~max_bytes:b dir in
      Printf.printf
        "%s: %d segments, %.1f MiB -> %.1f MiB (removed %d, bound %.1f MiB)\n"
        dir s.Measurement_cache.segments
        (float_of_int s.Measurement_cache.bytes_before /. mib)
        (float_of_int s.Measurement_cache.bytes_after /. mib)
        s.Measurement_cache.removed
        (float_of_int b /. mib);
      0
    end

(* minimal JSON string escaping: paths and namespaces are the only
   strings we emit, but a backslash-y path must still round-trip *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* What's on disk for the current build: entry, segment and byte counts
   for the measurement cache and the replay store it contains, plus the
   namespace entries of this binary carry. Read-only. [--json] emits
   the same facts as one machine-readable object on stdout (absent
   stores are [null], so consumers need no existence probe of their
   own). *)
let cache_stat dir json =
  let dir =
    match dir with
    | "" ->
      (match Measurement_cache.env_disk () with
       | Some d -> d.Measurement_cache.dir
       | None -> "_mp_cache")
    | d -> d
  in
  let exists = Sys.file_exists dir in
  let stats d =
    let s = Measurement_cache.disk_stats d in
    ( s.Measurement_cache.ds_entries,
      s.Measurement_cache.ds_segments,
      s.Measurement_cache.ds_bytes )
  in
  let rdir = Measurement_cache.replay_dir dir in
  if json then begin
    let store d =
      if not (Sys.file_exists d) then "null"
      else
        let entries, segments, bytes = stats d in
        Printf.sprintf "{\"entries\": %d, \"segments\": %d, \"bytes\": %d}"
          entries segments bytes
    in
    Printf.printf
      "{\"directory\": \"%s\", \"namespace\": \"%s\", \"cache\": %s, \
       \"replay\": %s}\n"
      (json_escape dir)
      (json_escape (Measurement_cache.namespace ()))
      (if exists then store dir else "null")
      (if exists then store rdir else "null")
  end
  else begin
    Printf.printf "directory:  %s\n" dir;
    Printf.printf "namespace:  %s\n" (Measurement_cache.namespace ());
    if not exists then Printf.printf "(no cache directory yet)\n"
    else begin
      let entries, segments, bytes = stats dir in
      Printf.printf "cache:      %d entries in %d segments, %.1f MiB\n"
        entries segments
        (float_of_int bytes /. mib);
      if Sys.file_exists rdir then begin
        let entries, segments, bytes = stats rdir in
        Printf.printf "replay:     %d records in %d segments, %.1f MiB\n"
          entries segments
          (float_of_int bytes /. mib)
      end
      else Printf.printf "replay:     (no store)\n"
    end
  end;
  0

let cache_cmd =
  let dir_t =
    Arg.(
      value & opt string ""
      & info [ "dir" ] ~docv:"DIR"
          ~doc:
            "Cache directory (default: $(b,MP_CACHE_DIR) or $(b,_mp_cache)).")
  in
  let max_mb_t =
    Arg.(
      value
      & opt (some float) None
      & info [ "max-mb" ] ~docv:"MB"
          ~doc:
            "Size bound in MiB; oldest segments are evicted until the \
             directory fits (default: $(b,MP_CACHE_MAX_MB)).")
  in
  let gc =
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Evict the oldest measurement-cache and replay segments past \
            the size bound (a live writer's segment goes last)")
      Term.(const cache_gc $ dir_t $ max_mb_t)
  in
  let json_t =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit one machine-readable JSON object instead of text.")
  in
  let stat =
    Cmd.v
      (Cmd.info "stat"
         ~doc:
           "Show segment, entry and size statistics for the measurement \
            cache and the replay store, plus this build's namespace")
      Term.(const cache_stat $ dir_t $ json_t)
  in
  Cmd.group
    (Cmd.info "mp-cache" ~doc:"Disk measurement-cache housekeeping")
    [ gc; stat ]

(* ----- mem-stat ---------------------------------------------------------------------- *)

(* The per-level source histogram of the last membench run, read back
   from the BENCH_mem_hist.csv artifact the bench harness writes (rows
   are comma-separated with no quoting — every field is a plain token).
   Read-only: point --file at the artifact, or let the default search
   find it next to the binary's usual invocation directories. *)
let mem_stat_paths =
  [ "BENCH_mem_hist.csv"; "bench/BENCH_mem_hist.csv";
    "_build/default/bench/BENCH_mem_hist.csv" ]

let mem_stat file =
  let path =
    match file with
    | "" -> List.find_opt Sys.file_exists mem_stat_paths
    | f -> if Sys.file_exists f then Some f else None
  in
  match path with
  | None ->
    prerr_endline
      "mem-stat: no BENCH_mem_hist.csv found (run `dune build @ci` or \
       `bench/main.exe membench` first, or pass --file)";
    2
  | Some path ->
    let ic = open_in path in
    let rows = ref [] in
    (try
       while true do
         rows := String.split_on_char ',' (input_line ic) :: !rows
       done
     with End_of_file -> ());
    close_in ic;
    (match List.rev !rows with
     | [] | [ _ ] ->
       Printf.eprintf "mem-stat: %s is empty\n" path;
       2
     | _header :: rows ->
       Printf.printf "membench histograms from %s\n\n" path;
       let kernels =
         Util.Text_table.create
           [ "Target"; "SMT"; "speedup"; "L1"; "L2"; "L3"; "MEM";
             "minorw/cyc" ]
       in
       let sweep =
         Util.Text_table.create
           [ "Stride"; "packed Macc/s"; "list Macc/s"; "L1"; "L2"; "L3";
             "MEM" ]
       in
       let n_kernels = ref 0 and n_stride = ref 0 in
       List.iter
         (fun row ->
           match row with
           | [ "kernel"; target; smt; _list_s; _packed_s; speedup; f1; f2;
               f3; fm; minorw ] ->
             incr n_kernels;
             Util.Text_table.add_row kernels
               [ target; smt; speedup ^ "x"; f1; f2; f3; fm; minorw ]
           | [ "stride"; _; stride; list_m; packed_m; _speedup; f1; f2; f3;
               fm; _ ] ->
             incr n_stride;
             Util.Text_table.add_row sweep
               [ stride; packed_m; list_m; f1; f2; f3; fm ]
           | _ -> ())
         rows;
       if !n_kernels = 0 && !n_stride = 0 then begin
         Printf.eprintf "mem-stat: no recognisable rows in %s\n" path;
         2
       end
       else begin
         if !n_kernels > 0 then Util.Text_table.print kernels;
         if !n_stride > 0 then begin
           print_newline ();
           Util.Text_table.print sweep
         end;
         0
       end)

let mem_stat_cmd =
  let file_t =
    Arg.(
      value & opt string ""
      & info [ "file" ] ~docv:"CSV"
          ~doc:
            "Histogram artifact to read (default: search for \
             $(b,BENCH_mem_hist.csv) in the usual bench output \
             directories).")
  in
  Cmd.v
    (Cmd.info "mem-stat"
       ~doc:
         "Print the per-level source histogram (and stride sweep) of the \
          last membench run")
    Term.(const mem_stat $ file_t)

(* ----- main ------------------------------------------------------------------------- *)

let () =
  (* process-wide: a peer (a shard worker, or a pager on stdout)
     closing its end mid-write must surface as EPIPE on that write, not
     kill the process — the coordinator's socket paths depend on it,
     and the pool constructors only cover processes that build pools *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  let doc = "automated micro-benchmark generation for energy characterization" in
  let info = Cmd.info "microprobe" ~version ~doc in
  let group =
    Cmd.group info
      [ list_isa_cmd; isa_text_cmd; generate_cmd; measure_cmd; bootstrap_cmd;
        stressmark_cmd; cache_cmd; mem_stat_cmd ]
  in
  let code = Cmd.eval' group in
  (* join worker domains and shard subprocesses deterministically on
     every exit path (the at_exit hooks cover abnormal ones) *)
  Shard_exec.shutdown_global ();
  Util.Parallel.shutdown_global ();
  exit code
