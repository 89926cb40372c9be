(** Decimal integers written straight into a buffer. *)

val add_int : Buffer.t -> int -> unit
(** [add_int b n] appends the bytes of [string_of_int n] to [b] without
    building that string: no allocation unless [b] must grow. *)
