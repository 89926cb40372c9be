(* A crash-tolerant pool of worker subprocesses. The coordinator holds
   exactly one bidirectional fd per slot: the worker gets the other end
   of an AF_UNIX socketpair as both stdin and stdout, so a worker loop
   only ever reads stdin and writes stdout. Every failure degrades to
   "this worker is gone" (the slot is reaped and the call reports
   failure), and the *caller* re-runs whatever was in flight — a split
   that keeps the recovery story testable with a plain [/bin/cat] echo
   worker. *)

(* ----- process-wide telemetry -------------------------------------------- *)

(* Cumulative over every pool in the process, so the bench harness can
   report one number per metric without threading pool handles around. *)
let sent = Atomic.make 0
let received = Atomic.make 0
let bytes_total = Atomic.make 0
let reopens = Atomic.make 0

let frames_sent () = Atomic.get sent
let frames_received () = Atomic.get received
let bytes_transferred () = Atomic.get bytes_total
let reopen_count () = Atomic.get reopens

let count_bytes payload =
  ignore
    (Atomic.fetch_and_add bytes_total
       (Bytes.length payload + Transport.frame_header_bytes))

(* ----- the pool ---------------------------------------------------------- *)

type slot = {
  mutable fd : Unix.file_descr option; (* Some while the slot is open *)
  mutable pid : int; (* the subprocess behind [fd]; -1 otherwise *)
  mutable opened_once : bool; (* a later open is a reopen *)
  mutable backoff_s : float;
  mutable next_attempt : float; (* gettimeofday before which opens fast-fail *)
}

type t = {
  prog : string;
  argv : string array;
  env : string array;
  lock : Mutex.t; (* guards the slots (open/reap transitions, growth) *)
  mutable slots : slot array;
}

let backoff_initial_s = 0.05
let backoff_cap_s = 2.0

(* Overrides win over the inherited environment; first occurrence of a
   key wins within the override list itself. *)
let child_env overrides =
  let seen = Hashtbl.create 8 in
  let ov =
    List.filter_map
      (fun (k, v) ->
        if Hashtbl.mem seen k then None
        else begin
          Hashtbl.add seen k ();
          Some (k ^ "=" ^ v)
        end)
      overrides
  in
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun s ->
           match String.index_opt s '=' with
           | Some i -> not (Hashtbl.mem seen (String.sub s 0 i))
           | None -> true)
  in
  Array.of_list (ov @ inherited)

let new_slot _ =
  {
    fd = None;
    pid = -1;
    opened_once = false;
    backoff_s = backoff_initial_s;
    next_attempt = 0.0;
  }

let create ?(prog = Sys.executable_name) ?(args = []) ?(env = []) n =
  (* a write to a worker that just died must surface as EPIPE, not kill
     the coordinator *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  {
    prog;
    argv = Array.of_list (prog :: args);
    env = child_env env;
    lock = Mutex.create ();
    slots = Array.init (max 0 n) new_slot;
  }

let locked t f = Mutex.protect t.lock f

let size t = locked t (fun () -> Array.length t.slots)

let ensure_size t n =
  locked t (fun () ->
      let cur = Array.length t.slots in
      if n > cur then
        t.slots <- Array.append t.slots (Array.init (n - cur) new_slot))

let label _ i = Printf.sprintf "proc:%d" i

let close_fd fd = try Unix.close fd with _ -> ()

(* ----- opening a slot --------------------------------------------------- *)

(* must hold t.lock. The coordinator's end is close-on-exec, so a
   worker spawned later never holds this one's socket open and closing
   it delivers EOF; it is non-blocking so a worker that stopped
   draining can't wedge the coordinator (see [Transport.write_all]). A
   failed spawn starts (or doubles) the slot's backoff window, so a
   missing or broken binary fast-fails instead of being retried on
   every send. *)
let open_locked t s =
  let ours, theirs =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  match Unix.create_process_env t.prog t.argv t.env theirs theirs Unix.stderr with
  | exception _ ->
    close_fd ours;
    close_fd theirs;
    s.next_attempt <- Unix.gettimeofday () +. s.backoff_s;
    s.backoff_s <- Float.min backoff_cap_s (s.backoff_s *. 2.0)
  | pid ->
    Unix.close theirs;
    Unix.set_nonblock ours;
    if s.opened_once then Atomic.incr reopens;
    s.opened_once <- true;
    s.fd <- Some ours;
    s.pid <- pid;
    s.backoff_s <- backoff_initial_s;
    s.next_attempt <- 0.0

(* must hold t.lock *)
let ensure_open_locked t s =
  if s.fd = None && Unix.gettimeofday () >= s.next_attempt then open_locked t s;
  s.fd

(* must hold t.lock *)
let reap_locked s =
  Option.iter close_fd s.fd;
  s.fd <- None;
  if s.pid > 0 then begin
    (try Unix.kill s.pid Sys.sigkill with _ -> ());
    (try ignore (Unix.waitpid [] s.pid) with _ -> ())
  end;
  s.pid <- -1

(* ----- send, receive, reap ---------------------------------------------- *)

let open_slot t i =
  locked t (fun () ->
      let s = t.slots.(i) in
      (* an explicit open is a caller saying "try now" *)
      s.next_attempt <- 0.0;
      ensure_open_locked t s <> None)

let write_slot t i write =
  locked t (fun () ->
      let s = t.slots.(i) in
      match ensure_open_locked t s with
      | None -> false
      | Some fd ->
        (match write fd with
         | () -> true
         | exception _ ->
           reap_locked s;
           false))

let send ?timeout_s t i payload =
  let deadline = Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s in
  write_slot t i (fun fd ->
      Transport.write_frame ?deadline fd payload;
      Atomic.incr sent;
      count_bytes payload)

let send_raw t i payload =
  write_slot t i (fun fd -> Transport.write_all fd payload 0 (Bytes.length payload))

let reap t i = locked t (fun () -> reap_locked t.slots.(i))

let recv ?timeout_s t i =
  match locked t (fun () -> t.slots.(i).fd) with
  | None -> None
  | Some fd ->
    (* the read itself runs outside the lock — a slow worker must not
       block sends to its siblings *)
    (match Transport.read_frame ?timeout_s fd with
     | Some payload ->
       Atomic.incr received;
       count_bytes payload;
       Some payload
     | None ->
       reap t i;
       None)

(* EINTR and a select refused by the OS both report "nothing
   readable"; the caller's deadline bookkeeping decides what that
   means. *)
let select_readable ?(timeout_s = 0.0) ?(or_writable = []) t idxs =
  let fds l =
    locked t (fun () ->
        List.filter_map
          (fun i -> Option.map (fun fd -> (fd, i)) t.slots.(i).fd)
          l)
  in
  let rfds = fds idxs and wfds = fds or_writable in
  if rfds = [] && wfds = [] then []
  else
    match Unix.select (List.map fst rfds) (List.map fst wfds) [] timeout_s with
    | exception _ -> []
    | ready, _, _ ->
      List.filter_map
        (fun (fd, i) -> if List.memq fd ready then Some i else None)
        rfds

let writable t i =
  match locked t (fun () -> t.slots.(i).fd) with
  | None -> false
  | Some fd -> (
    match Unix.select [] [ fd ] [] 0.0 with
    | exception _ -> false
    | _, w, _ -> w <> [])

let shutdown t =
  locked t (fun () ->
      (* closing our end delivers EOF: a healthy worker exits on its own *)
      Array.iter
        (fun s ->
          Option.iter close_fd s.fd;
          s.fd <- None)
        t.slots;
      let deadline = Unix.gettimeofday () +. 1.0 in
      Array.iter
        (fun s ->
          let rec wait () =
            match Unix.waitpid [ Unix.WNOHANG ] s.pid with
            | 0, _ when Unix.gettimeofday () < deadline ->
              Unix.sleepf 0.005;
              wait ()
            | 0, _ -> reap_locked s
            | _ -> ()
            | exception _ -> ()
          in
          if s.pid > 0 then wait ();
          s.pid <- -1)
        t.slots)

(* ----- test hooks -------------------------------------------------------- *)

let pid t i =
  locked t (fun () ->
      let p = t.slots.(i).pid in
      if p > 0 then Some p else None)

(* SIGKILL the process but leave the slot's bookkeeping alone, exactly
   like a real crash — the next send/recv discovers the death *)
let kill t i =
  locked t (fun () ->
      let p = t.slots.(i).pid in
      if p > 0 then try Unix.kill p Sys.sigkill with _ -> ())
