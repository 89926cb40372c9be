(* The engine's process-wide state under concurrent first use: the
   binary stamp behind Measurement_cache.namespace, the key-time counter
   behind Measurement_cache.key and the period-skipping telemetry behind
   a Core_sim.run without [?period]. This executable's first action, before
   anything else in the process consults them, is to have four domains,
   released together, use all three at once; the checks then run on
   what each domain saw. *)

open Mp_codegen
open Mp_sim

let n_domains = 4

type seen = { namespace : string; key : string; cycles : int }

let first_use =
  let a = Arch.power7 () in
  let uarch = a.Arch.uarch in
  let p =
    Mp_stressmark.Stressmark.program_of_sequence ~arch:a ~size:8
      ~name:"settings" [ Arch.find_instruction a "add" ]
  in
  let config = Mp_uarch.Uarch_def.config ~cores:1 ~smt:1 uarch in
  let opmap = Core_sim.opmap_create () in
  let dp = Core_sim.deploy ~uarch ~opmap ~streams:(fun _ -> [||]) p in
  let arrived = Atomic.make 0 in
  let use () =
    Atomic.incr arrived;
    while Atomic.get arrived < n_domains do Domain.cpu_relax () done;
    let namespace = Measurement_cache.namespace () in
    let key =
      Measurement_cache.key ~config ~warmup:0 ~measure:4 ~name:p.Ir.name
        [| p |]
    in
    let activity = Core_sim.run ~uarch ~opmap ~warmup:0 ~measure:4 [| dp |] in
    { namespace; key; cycles = activity.Core_sim.measured_cycles }
  in
  List.init n_domains (fun _ ->
      Domain.spawn (fun () -> try Ok (use ()) with e -> Error e))
  |> List.map Domain.join

let test_concurrent_first_use () =
  let seen =
    List.map
      (function
        | Ok s -> s
        | Error e -> Alcotest.failf "a domain raised %s" (Printexc.to_string e))
      first_use
  in
  match seen with
  | [] -> Alcotest.fail "no domain ran"
  | first :: rest ->
    List.iter
      (fun s ->
        Alcotest.(check string) "same namespace" first.namespace s.namespace;
        Alcotest.(check string) "same key" first.key s.key;
        Alcotest.(check int) "same run" first.cycles s.cycles)
      rest;
    Alcotest.(check string) "namespace stable after first use" first.namespace
      (Measurement_cache.namespace ())

let () =
  Alcotest.run "settings"
    [
      ("engine settings",
       [ Alcotest.test_case "concurrent first use" `Quick
           test_concurrent_first_use ]);
    ]
