open Mp_uarch

type reading = {
  true_power : float;
  sensor_mean : float;
  trace : float array;
}

let static_power ~(table : Energy_table.t) ~(config : Uarch_def.config) =
  let n = float_of_int config.Uarch_def.cores in
  table.idle_power +. table.uncore_base
  +. (table.cmp_linear *. n)
  +. (table.cmp_quad *. n *. n)
  +. (if config.Uarch_def.smt > 1 then table.smt_overhead *. n else 0.0)

(* Opcode names are distinct per id, so names alone order both the
   issue counts and the transition pairs, as polymorphic [compare] on
   the whole tuples did. *)
let compare_pair (a1, b1, _) (a2, b2, _) =
  let c = String.compare a1 a2 in
  if c <> 0 then c else String.compare b1 b2

let core_dynamic ~(table : Energy_table.t) ~opmap ~(activity : Core_sim.activity) =
  let cycles = float_of_int (max 1 activity.Core_sim.measured_cycles) in
  let scale = table.data_scale activity.Core_sim.daf in
  (* Sum opcode and transition energies in opcode-NAME order, never in
     intern-id order: ids reflect the machine's interning history, and
     float summation order must not — otherwise a measurement served
     from the persistent cache to a machine with a different history
     would differ in the last bit from a fresh simulation. *)
  let issued = ref [] in
  Array.iteri
    (fun id count ->
      if count > 0 then
        issued := (Core_sim.opmap_name opmap id, count) :: !issued)
    activity.Core_sim.op_issues;
  let opcode_energy =
    List.fold_left
      (fun acc (name, count) ->
        acc +. (float_of_int count *. table.opcode_epi name))
      0.0
      (List.sort (fun (a, _) (b, _) -> String.compare a b) !issued)
  in
  let cache_energy = ref 0.0 in
  Array.iteri
    (fun lid count ->
      cache_energy :=
        !cache_energy +. (float_of_int count *. table.level_energy.(lid)))
    activity.Core_sim.level_loads;
  let stores =
    Array.fold_left
      (fun acc (c : Measurement.counters) -> acc +. c.Measurement.st)
      0.0 activity.Core_sim.threads
  in
  let dispatched =
    Array.fold_left
      (fun acc (c : Measurement.counters) -> acc +. c.Measurement.dispatched)
      0.0 activity.Core_sim.threads
  in
  let transition_energy =
    List.fold_left
      (fun acc (a, b, count) ->
        acc +. (float_of_int count *. table.transition_energy a b))
      0.0
      (List.sort compare_pair
         (List.map
            (fun (a, b, count) ->
              (Core_sim.opmap_name opmap a, Core_sim.opmap_name opmap b, count))
            activity.Core_sim.transitions))
  in
  ((opcode_energy *. scale)
   +. !cache_energy
   +. (stores *. table.store_energy)
   +. (dispatched *. table.dispatch_energy)
   +. transition_energy)
  /. cycles

let chip_power ~table ~config ~opmap ~activity =
  let dyn_core = core_dynamic ~table ~opmap ~activity in
  let chip_dyn = dyn_core *. float_of_int config.Uarch_def.cores in
  static_power ~table ~config +. table.saturate chip_dyn

let idle_power ~table ~config = static_power ~table ~config

let sample ~table ~rng ~config ~opmap ~activity () =
  let p = chip_power ~table ~config ~opmap ~activity in
  let trace =
    Array.init 24 (fun _ ->
        let rel = Mp_util.Rng.gaussian rng ~mu:1.0 ~sigma:table.noise_rel in
        let abs = Mp_util.Rng.gaussian rng ~mu:0.0 ~sigma:table.noise_abs in
        Float.max 0.0 ((p *. rel) +. abs))
  in
  { true_power = p; sensor_mean = Mp_util.Stats.mean trace; trace }
