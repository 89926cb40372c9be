(** Micro-benchmark internal representation.

    A micro-benchmark is an endless loop: a body of payload
    instructions plus an implicit loop-closing [bdnz]. Memory
    instructions carry a {e target hierarchy level}; the concrete
    address streams are instantiated at deployment time (per hardware
    thread) by the measurement harness, so that one program can be
    replicated over any SMT partition without violating the analytical
    model's disjointness guarantees. *)

type level = Mp_uarch.Cache_geometry.level

type instr = {
  index : int;
  op : Mp_isa.Instruction.t;
  dests : Reg.t list;           (** results, including update write-backs *)
  srcs : Reg.t list;            (** register data + address sources *)
  imm : int64 option;
  mem_target : level option;    (** [Some _] iff [op] is a memory op *)
  taken_pattern : bool array option;
      (** conditional branches: outcome per dynamic execution, cycled *)
}

type t = {
  name : string;
  body : instr array;
  reg_init : (Reg.t * int64) list;
  imm_policy : string;          (** provenance of immediate initialisation *)
  memory_distribution : (level * float) list option;
  provenance : string list;     (** names of the passes applied, in order *)
  struct_hash : int64;
      (** structural content hash, precomputed at {!Builder.finalize}
          time — see {!compute_hashes} *)
  body_hash : int64;
      (** like [struct_hash] but excluding the name — see
          {!compute_hashes} *)
}

val size : t -> int
(** Payload instructions in the loop body. *)

val compute_hashes :
  name:string ->
  body:instr array ->
  reg_init:(Reg.t * int64) list ->
  memory_distribution:(level * float) list option ->
  int64 * int64
(** [(struct_hash, body_hash)] in one pass over the program.

    The struct hash is a 64-bit FNV/splitmix content hash of everything
    a measurement can depend on through the program: name, instruction
    stream (opcodes, operands, immediates, memory targets, branch
    patterns), register initialisation and memory distribution.
    [imm_policy] and [provenance] are excluded (build metadata, already
    reflected in the hashed fields). Deterministic across processes, so
    it is safe in persistent cache keys; the measurement cache folds
    this precomputed field instead of re-serialising the program on
    every lookup.

    The body hash is the same content fold {e without} the name:
    programs differing only in their label share it. The name reaches a
    measurement only through the per-run RNG (address-stream
    randomisation for memory programs, sensor noise), so
    name-insensitive layers — the steady-state {!Mp_sim.Replay} table —
    key on this hash and fold the RNG inputs in separately, exactly
    when a program consumes them. *)

val rehash : t -> t
(** Recompute [struct_hash] and [body_hash] from the current field
    values — required after hand-editing a finalized program (e.g.
    [{ p with body }] in tests); {!Builder.finalize} output is already
    hashed. *)

val struct_hash : t -> int64

val body_hash : t -> int64

val has_memory : t -> bool
(** Whether any body instruction is a memory operation — allocation-free
    (unlike [memory_instructions <> []]). *)

val instruction_mix : t -> (string * int) list
(** Mnemonic histogram, descending count. *)

val memory_instructions : t -> instr list

val validate : t -> (unit, string) result
(** Structural invariants: indices are dense, memory ops have targets
    and non-memory ops do not, operand register classes agree with the
    instruction signature, register indices are within file bounds. *)

val data_activity_factor : t -> float
(** Mean normalised population count of the register initialisation
    values, in [\[0, 1\]]. Random data sits near 0.5; all-zero data at
    0. The power ground-truth uses this to model data-dependent
    switching. *)

val pp_summary : Format.formatter -> t -> unit
