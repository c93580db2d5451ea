open W5_difc

type handler = Kernel.ctx -> Proc.message -> unit

type t = {
  kernel : Kernel.t;
  service_proc : Proc.t;
  handler : handler;
  mutable total_handled : int;
}

let create kernel ~name ~owner ?(labels = Flow.bottom)
    ?(caps = Capability.Set.empty) ?(limits = Resource.default_app_limits)
    handler =
  (* No body and never queued: the process stays Runnable (alive) so
     senders can reach its mailbox, and runs only in deliver_pending. *)
  Result.map
    (fun service_proc -> { kernel; service_proc; handler; total_handled = 0 })
    (Kernel.create_proc kernel ~name ~owner ~labels ~caps ~limits ())

let pid t = t.service_proc.Proc.pid
let proc t = t.service_proc
let is_alive t = Proc.is_alive t.service_proc
let pending t = Queue.length t.service_proc.Proc.mailbox
let handled t = t.total_handled

let deliver_pending t =
  if not (Proc.is_alive t.service_proc) then
    Error (Os_error.Dead_process t.service_proc.Proc.pid)
  else begin
    let ctx = { Kernel.kernel = t.kernel; proc = t.service_proc } in
    let count = ref 0 in
    let outcome =
      try
        let rec drain () =
          match Syscall.recv ctx with
          | Ok None -> Ok ()
          | Ok (Some msg) ->
              t.handler ctx msg;
              incr count;
              t.total_handled <- t.total_handled + 1;
              drain ()
          | Error (Os_error.Denied _) ->
              (* unabsorbable message was dropped by recv; keep going *)
              drain ()
          | Error _ as e -> Result.map (fun _ -> ()) e
        in
        drain ()
      with exn -> Error (Kernel.fail_proc t.kernel t.service_proc exn)
    in
    Result.map (fun () -> !count) outcome
  end

let pump services =
  List.fold_left
    (fun acc service ->
      match acc with
      | Error _ as e -> e
      | Ok total ->
          Result.map (fun n -> total + n) (deliver_pending service))
    (Ok 0) services

let shutdown t = Kernel.finish_proc t.kernel t.service_proc
