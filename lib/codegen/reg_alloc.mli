(** Register pools and the allocation convention of generated code.

    The convention keeps operand roles in disjoint index ranges so that
    the dependency-distance pass has full control over inter-instruction
    dependencies — nothing else in the loop accidentally aliases:

    - GPR 0–7: loop control and scratch (never allocated);
    - GPR 8–15: memory base registers (rotating);
    - GPR 16–23: read-only sources;
    - GPR 24–31: rotating destinations;
    - FPR 0–15 sources, FPR 16–31 destinations;
    - VSR 0–31 sources, VSR 32–63 destinations;
    - CR fields 0–5 rotate as compare destinations. *)

type t

val create : unit -> t

val one : t -> Reg.t -> Reg.t list
(** [[r]], one list per register and allocator: operand lists are
    immutable, so every instruction whose list ends in [r] can share
    its last cell. *)

val base : t -> Reg.t
(** Next rotating memory base register. *)

val source : t -> Mp_isa.Instruction.reg_class -> Reg.t
(** Next read-only source of a class. *)

val dest : t -> Mp_isa.Instruction.reg_class -> Reg.t
(** Next rotating destination of a class. *)

val all_sources : Mp_isa.Instruction.reg_class -> Reg.t list
val all_bases : Reg.t list
val all_dests : Mp_isa.Instruction.reg_class -> Reg.t list
