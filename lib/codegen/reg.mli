(** Architected registers referenced by generated code. *)

type t = Gpr of int | Fpr of int | Vsr of int | Cr_field of int | Ctr

val compare : t -> t -> int
val equal : t -> t -> bool
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val class_of : t -> Mp_isa.Instruction.reg_class
(** The register file a register belongs to ([Ctr] reports [Cr]). *)

val file_size : Mp_isa.Instruction.reg_class -> int
(** 32 GPRs/FPRs, 64 VSRs, 8 CR fields. *)

val n_slots : int
(** One slot per register of every file, plus CTR. *)

val slot : t -> int
(** A dense index in [\[0, n_slots)]: the GPRs, then the FPRs, VSRs, CR
    fields and CTR. Raises [Invalid_argument] for an index outside its
    file. *)

val make : Mp_isa.Instruction.reg_class -> int -> t
(** Raises [Invalid_argument] if the index exceeds the file size. *)
