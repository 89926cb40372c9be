(** Turn simulated core activity into chip power and sensor readings —
    the EnergyScale/TPMD stand-in. Consumes {!Energy_table} (the ground
    truth); everything downstream sees only the returned samples. *)

type reading = {
  true_power : float;      (** noiseless chip power (internal, for tests) *)
  sensor_mean : float;     (** mean of the sampled sensor trace *)
  trace : float array;     (** individual 1-ms-style sensor samples *)
}

val chip_power :
  table:Energy_table.t ->
  config:Mp_uarch.Uarch_def.config ->
  opmap:Core_sim.opmap ->
  activity:Core_sim.activity ->
  float
(** Noiseless chip power for one core's measured activity replicated
    over [config.cores] cores. *)

val sample :
  table:Energy_table.t ->
  rng:Mp_util.Rng.t ->
  config:Mp_uarch.Uarch_def.config ->
  opmap:Core_sim.opmap ->
  activity:Core_sim.activity ->
  unit ->
  reading
(** Apply sensor noise over 24 sampling windows. *)

val idle_power : table:Energy_table.t -> config:Mp_uarch.Uarch_def.config -> float
(** Chip power with enabled-but-idle cores — what a measurement of an
    empty machine reports (before sensor noise). *)
