(** The one reader of the process environment: every [MP_*] knob goes
    through this module, so every knob shares one grammar.

    - The value is trimmed; an unset or blank variable is absent and
      its knob takes its default.
    - Any other value that does not parse raises
      [Invalid_argument "MP_X=\"v\": expected ..."], naming the
      variable and the form it accepts. A typo stops the run instead
      of silently changing what it measures.
    - Matching against words ({!flag}, {!choice}) ignores case.

    Callers read a knob where it takes effect (per batch, per pool,
    per cache simulator, per machine), not once at start-up, so a test
    can change a variable between runs. *)

val get : string -> string option
(** The trimmed value; [None] when unset or blank. *)

val flag_words : (string * bool) list
(** The on/off spellings every {!flag} accepts: [on]/[off], [1]/[0],
    [true]/[false] and [yes]/[no]. *)

val flag : string -> default:bool -> bool
(** An on/off knob spelled as one of {!flag_words}. *)

val choice : string -> default:'a -> (string * 'a) list -> 'a
(** A knob whose value must be one of the listed words. *)

val int : string -> min:int -> int option
(** An integer knob of at least [min]; [None] when absent. *)

val positive_float : string -> float option
(** A finite number greater than zero; [None] when absent. *)

val host_port : string -> (string * int) option
(** One [host:port] entry, split on the {e last} colon so a bare IPv6
    literal ([::1:7000]) keeps its colons; the host must be non-empty
    and the port in [1..65535]. [None] when the entry does not
    parse. *)

val hosts : string -> (string * int) list
(** A comma-separated list of {!host_port} entries ([[]] when absent;
    blank entries are skipped). *)
