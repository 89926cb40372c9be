(** A crash-tolerant pool of worker subprocesses, each reached through
    one bidirectional fd.

    The transport under {!Mp_sim.Shard_exec}. A slot runs [prog args]
    with one end of an [AF_UNIX] socketpair as both its stdin and
    stdout, speaks the {!Transport} frame codec and knows nothing about
    what the frames mean.

    Creating a pool spawns nothing: a slot opens lazily on its first
    {!send}. Every failure — a failed spawn, a worker that died or
    stopped responding, a truncated or oversized frame, a broken pipe —
    degrades to "this worker is gone": the slot is reaped (fd closed,
    the subprocess SIGKILLed and waited for) and the call reports
    failure, leaving the {e caller} to re-run whatever was in flight.
    The next {!send} respawns the slot (counted by {!reopen_count});
    after a failed spawn the slot fast-fails for a capped exponential
    backoff window (0.05 s doubling to 2 s), so a missing binary costs
    one attempt per window instead of one per send.

    Coordinator fds are close-on-exec, so a worker spawned later never
    holds an earlier slot open (EOF on shutdown stays reliable), and
    non-blocking, so writes with a deadline cannot wedge the caller.
    SIGPIPE is ignored process-wide at pool creation.

    All operations are domain-safe; sends and slot transitions serialize
    on the pool lock, the blocking read itself runs outside it. *)

type t

val create :
  ?prog:string -> ?args:string list -> ?env:(string * string) list -> int -> t
(** [create n] lays out [n] slots labelled [proc:0] .. [proc:n-1]
    running [prog args] (default: [Sys.executable_name], no arguments)
    with stderr inherited and [env] overrides on top of the inherited
    environment (an override wins over an inherited binding of the
    same name; the first occurrence of a key within [env] wins). *)

val size : t -> int

val ensure_size : t -> int -> unit
(** Grow to at least [n] slots, appended after the existing ones. Never
    shrinks. *)

val label : t -> int -> string

val open_slot : t -> int -> bool
(** Open slot [i] now unless it is open, ignoring the backoff window.
    [true] when the slot is open. *)

val send : ?timeout_s:float -> t -> int -> bytes -> bool
(** Frame and write [payload] to slot [i], opening it first if needed.
    [false] means the worker is gone (open failed or backing off,
    broken pipe, or the write missed [timeout_s]; without it the write
    waits as long as the worker takes to drain) and the slot has been
    reaped — the caller owns whatever it was trying to dispatch. *)

val recv : ?timeout_s:float -> t -> int -> bytes option
(** Read one frame from slot [i]. [None] means the worker is gone —
    not open, EOF, a malformed frame, or no complete frame within
    [timeout_s] (wait forever when omitted) — and the slot has been
    reaped. *)

val reap : t -> int -> unit
(** Force-reap slot [i]: fd closed, its subprocess SIGKILLed and waited
    for. The next {!send} respawns it. *)

val select_readable :
  ?timeout_s:float -> ?or_writable:int list -> t -> int list -> int list
(** One [Unix.select] across the given slots: those whose fd has a
    frame (or EOF) pending after waiting at most [timeout_s] (default
    [0.0] — pure poll). The wait also ends early when a slot in
    [or_writable] can take another frame. Slots that are not open are
    skipped; EINTR reports nothing readable. *)

val writable : t -> int -> bool
(** Zero-timeout probe: [true] when another frame can start without
    blocking; [false] for a slot that is not open. *)

val shutdown : t -> unit
(** Close every slot's fd (EOF lets a healthy subprocess exit on its
    own), wait up to one second for the subprocesses, then SIGKILL
    and reap the stragglers. Idempotent; a later {!send} respawns. *)

(** {2 Test hooks} *)

val pid : t -> int -> int option
(** The subprocess behind slot [i]; [None] for a closed slot. *)

val kill : t -> int -> unit
(** SIGKILL slot [i]'s subprocess but leave the slot's bookkeeping
    untouched, exactly like a real crash — the next {!send} or {!recv}
    discovers the death and reaps. *)

val send_raw : t -> int -> bytes -> bool
(** Write raw bytes with {e no} framing, opening the slot if needed,
    to simulate a truncated or corrupt frame on the wire. *)

(** {2 Process-wide telemetry}

    Cumulative over every slot of every pool in the process; monotone,
    never part of any result. The split by slot is visible through the
    labels [Mp_sim.Shard_exec.slot_stats] reports. *)

val frames_sent : unit -> int

val frames_received : unit -> int

val bytes_transferred : unit -> int
(** Payload plus header bytes, both directions summed. *)

val reopen_count : unit -> int
(** Opens of a slot that had been open before: respawns (first opens
    excluded). *)
