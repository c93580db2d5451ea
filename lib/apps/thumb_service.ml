open W5_difc
open W5_os
open W5_platform

let thumbnail_of data =
  String.sub data 0 (min 8 (String.length data)) ^ "~thumb"

let workers = Kernel.Local.create (fun () -> Hashtbl.create 16)
let registry_of platform = Kernel.Local.get workers (Platform.kernel platform)

let worker_for platform ~user = Hashtbl.find_opt (registry_of platform) user

let handler ~user ctx (msg : Proc.message) =
  (* body = photo id; the write capability arrived with the message
     (recv already merged it into our set) *)
  let id = msg.Proc.body in
  let src = "/users/" ^ user ^ "/photos/" ^ id in
  let dst = src ^ ".thumb" in
  match Syscall.read_file_taint ctx src with
  | Error _ -> ()
  | Ok data -> (
      let write_tag =
        Capability.Set.to_list (Syscall.my_caps ctx)
        |> List.find_map (fun cap ->
               let tag = Capability.tag cap in
               if
                 Capability.sign cap = Capability.Plus
                 && Tag.kind tag = Tag.Integrity
               then Some tag
               else None)
      in
      match write_tag with
      | None -> ()
      | Some tag -> (
          (match Syscall.endorse_self ctx tag with Ok () | Error _ -> ());
          let labels =
            Flow.make
              ~secrecy:(Syscall.my_labels ctx).Flow.secrecy
              ~integrity:(Label.singleton tag) ()
          in
          let thumb = thumbnail_of data in
          match
            if Syscall.file_exists ctx dst then
              Syscall.write_file ctx dst ~data:thumb
            else Syscall.create_file ctx dst ~labels ~data:thumb
          with
          | Ok () | Error _ -> ()))

let install platform ~user =
  match worker_for platform ~user with
  | Some worker when Service.is_alive worker -> Ok worker
  | Some _ | None -> (
      match Platform.find_account platform user with
      | None -> Error (Os_error.Invalid ("no such user: " ^ user))
      | Some account -> (
          match
            Service.create (Platform.kernel platform)
              ~name:("thumbd:" ^ user)
              ~owner:(Platform.provider platform)
              ~labels:(Flow.make ~secrecy:(Account.secrecy_labels account) ())
              (handler ~user)
          with
          | Error _ as e -> e
          | Ok worker ->
              Hashtbl.replace (registry_of platform) user worker;
              Ok worker))

let request ctx platform ~user ~id =
  match worker_for platform ~user with
  | None -> Error (Os_error.Invalid ("no thumbnail worker for " ^ user))
  | Some worker ->
      (* delegate exactly the write capability we were dispatched with *)
      let write_caps =
        Capability.Set.of_list
          (List.filter
             (fun cap ->
               Capability.sign cap = Capability.Plus
               && Tag.kind (Capability.tag cap) = Tag.Integrity)
             (Capability.Set.to_list (Syscall.my_caps ctx)))
      in
      Syscall.send ctx ~to_:(Service.pid worker) ~grant:write_caps id

let pump_for platform ~user =
  match worker_for platform ~user with
  | None -> Error (Os_error.Invalid ("no thumbnail worker for " ^ user))
  | Some worker -> Service.deliver_pending worker
