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

let host_port entry =
  match String.rindex_opt entry ':' with
  | None -> None
  | Some i -> (
    let host = String.sub entry 0 i in
    let port = String.sub entry (i + 1) (String.length entry - i - 1) in
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 && host <> "" -> Some (host, p)
    | _ -> None)

let hosts name =
  let parse v =
    let entries =
      String.split_on_char ',' v |> List.map String.trim
      |> List.filter (( <> ) "")
    in
    let parsed = List.filter_map host_port entries in
    if List.compare_lengths parsed entries = 0 then Some parsed else None
  in
  Option.value ~default:[]
    (read name ~expected:"host:port[,host:port...]" parse)
