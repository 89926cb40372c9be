(** The frame codec the shard workers speak.

    Frames are a 4-byte big-endian length followed by the payload,
    bounded by a 1 GiB guard so a corrupt header cannot make the reader
    allocate garbage. {!Workerpool}'s slots and the worker loop in
    [Mp_sim.Shard_exec] both speak exactly this format over plain
    fds. *)

val max_frame_bytes : int
(** 1 GiB. A header claiming more (or a negative length) makes
    {!read_frame} return [None]; {!write_frame} raises [Invalid_argument]
    rather than emit such a frame. *)

val frame_header_bytes : int
(** 4 — the big-endian length prefix. *)

val write_all : ?deadline:float -> Unix.file_descr -> bytes -> int -> int -> unit
(** [write_all ?deadline fd buf off len] writes exactly [len] bytes,
    retrying short writes and EINTR, and waiting in [select] whenever a
    non-blocking [fd] reports EAGAIN. [deadline] is an absolute
    [Unix.gettimeofday] time; raises [Unix.Unix_error (ETIMEDOUT, _, _)]
    when it passes (the fd should be non-blocking for the deadline to be
    honoured mid-write). Without one the wait is unbounded but idle. *)

val write_frame : ?deadline:float -> Unix.file_descr -> bytes -> unit
(** Frame and write [payload]. Raises [Unix.Unix_error] on timeout or
    write failure, [Invalid_argument] if the payload exceeds
    {!max_frame_bytes}. *)

val read_frame : ?timeout_s:float -> Unix.file_descr -> bytes option
(** Read one frame. [None] on EOF, a read error, malformed length
    (negative or above the guard — nothing is allocated for such a
    header), or when no complete frame arrives within [timeout_s] (wait
    forever when omitted). Never raises on wire-level garbage. *)
