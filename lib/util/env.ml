(* The knob grammar. Nothing else in the library calls Sys.getenv: a
   second reader would bring back its own failure policy, and a
   malformed value would again fall back to a default without a
   trace. *)

let get name =
  match Sys.getenv_opt name with
  | None -> None
  | Some v -> ( match String.trim v with "" -> None | v -> Some v)

(* [parse] sees only present values; [None] from it is a rejection *)
let read name ~expected parse =
  Option.map
    (fun v ->
      match parse v with
      | Some x -> x
      | None ->
        invalid_arg (Printf.sprintf "%s=%S: expected %s" name v expected))
    (get name)

let choice name ~default words =
  Option.value ~default
    (read name
       ~expected:(String.concat "|" (List.map fst words))
       (fun v -> List.assoc_opt (String.lowercase_ascii v) words))

let flag_words =
  [ ("on", true); ("off", false); ("1", true); ("0", false);
    ("true", true); ("false", false); ("yes", true); ("no", false) ]

let flag name ~default = choice name ~default flag_words

let int name ~min =
  read name
    ~expected:(Printf.sprintf "an integer >= %d" min)
    (fun v ->
      match int_of_string_opt v with Some n when n >= min -> Some n | _ -> None)

let positive_float name =
  read name ~expected:"a number > 0" (fun v ->
      match float_of_string_opt v with
      | Some f when f > 0.0 && Float.is_finite f -> Some f
      | _ -> None)
