(** Mutable micro-benchmark under construction. Passes transform a
    builder; {!finalize} performs operand wiring and produces the
    immutable {!Ir.t}. *)

type dep_mode =
  | No_deps
  | Fixed of int           (** first data source ← dest of the op [d] back *)
  | Random_range of int * int

type value_policy = Random_values | Constant of int64

type t = {
  arch : Arch.t;
  rng : Mp_util.Rng.t;
  mutable name : string;
  mutable ops : Mp_isa.Instruction.t option array;
      (** per slot; [None] until a fill pass places an instruction *)
  mutable mem_targets : Ir.level option array;  (** per slot *)
  mutable patterns : bool array option array;
      (** per slot: branch outcome patterns *)
  mutable mem_distribution : (Ir.level * float) list option;
  mutable dep_mode : dep_mode;
  mutable reg_policy : value_policy;
  mutable imm_policy : value_policy;
  mutable provenance : string list;  (** reverse order *)
}

val create : Arch.t -> Mp_util.Rng.t -> t

val set_skeleton : t -> int -> unit
(** Allocate [n] empty slots: the three per-slot arrays. Raises if
    already set. *)

val size : t -> int
(** 0 before the skeleton pass. *)

val require_skeleton : t -> string -> unit
(** Raise [Failure] naming the offending pass when no skeleton exists. *)

val require_filled : t -> string -> unit
(** Raise when any slot has no instruction yet. *)

val record : t -> string -> unit
(** Append a pass name to the provenance trail. *)

val finalize : t -> Ir.t
(** Wire operands (respecting [dep_mode]), initialise registers and
    immediates per policy, and validate. Raises [Failure] on invalid
    construction (e.g. unfilled slots). *)
