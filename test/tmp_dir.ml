(* Temporary paths for the tests, shared by every test executable: each
   name is new, and whatever the test puts there — a file, or a
   directory with everything in it — is removed when the process
   exits. *)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* [fresh ~prefix tag] names [<tmp>/<prefix>_<tag>_<pid>_<n>] and does
   not create it *)
let fresh =
  let n = ref 0 in
  fun ~prefix tag ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s_%s_%d_%d" prefix tag (Unix.getpid ()) !n)
    in
    at_exit (fun () -> try remove_tree d with Sys_error _ -> ());
    d
