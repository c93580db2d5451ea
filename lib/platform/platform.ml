open W5_difc
open W5_os
open W5_store

type t = {
  kernel : Kernel.t;
  accounts : (string, Account.t) Hashtbl.t;
  mutable read_protected : Account.t list;
      (* every account with a read tag, each once: what app_caps_for
         scans for read grants *)
  tag_owner : (int, string) Hashtbl.t;
  registry : App_registry.t;
  sessions : W5_http.Session.t;
  provider : Principal.t;
  mutable requests_served : int;
  mutable vetted : string list;
  mutable limiter : Rate_limit.t option;
  mutable dns : W5_http.Dns.t option;
  app_limits : (string, Resource.limits) Hashtbl.t;
}

let kernel t = t.kernel
let registry t = t.registry
let sessions t = t.sessions
let provider t = t.provider
let requests_served t = t.requests_served
let count_request t = t.requests_served <- t.requests_served + 1
let vetted_apps t = t.vetted
let is_vetted t app = List.mem app t.vetted

let add_vetted t app =
  if not (List.mem app t.vetted) then t.vetted <- app :: t.vetted

let set_vetted t apps = t.vetted <- apps
let set_rate_limit t limiter = t.limiter <- limiter
let rate_limit t = t.limiter

let enable_dns t ~zone =
  let dns = W5_http.Dns.create ~zone in
  List.iter
    (fun app_id -> ignore (W5_http.Dns.register_app dns ~app_id))
    (App_registry.list_ids t.registry);
  t.dns <- Some dns;
  dns

let dns t = t.dns

let set_app_limits t ~app limits = Hashtbl.replace t.app_limits app limits

let app_limits t ~app =
  Option.value (Hashtbl.find_opt t.app_limits app)
    ~default:Resource.default_app_limits

let with_ctx t ~name ?owner ?(labels = Flow.bottom)
    ?(caps = Capability.Set.empty) ?(limits = Resource.unlimited) f =
  let owner = Option.value owner ~default:t.provider in
  Kernel.exec t.kernel ~name ~owner ~labels ~caps ~limits f

let users_root = "/users"
let apps_root = "/apps"
let user_dir user = users_root ^ "/" ^ user
let user_file user file = user_dir user ^ "/" ^ file

let create ?enforcing () =
  let kernel = Kernel.create ?enforcing () in
  let t =
    {
      kernel;
      accounts = Hashtbl.create 64;
      read_protected = [];
      tag_owner = Hashtbl.create 64;
      registry = App_registry.create ();
      sessions = W5_http.Session.create ();
      provider = Principal.make Principal.Provider "w5";
      requests_served = 0;
      vetted = [];
      limiter = None;
      dns = None;
      app_limits = Hashtbl.create 8;
    }
  in
  let boot =
    with_ctx t ~name:"boot" (fun ctx ->
        match Syscall.mkdir ctx users_root ~labels:Flow.bottom with
        | Error _ as e -> e
        | Ok () -> (
            match Syscall.mkdir ctx apps_root ~labels:Flow.bottom with
            | Error _ as e -> e
            | Ok () -> Obj_store.init ctx))
  in
  (match boot with
  | Ok () -> ()
  | Error e -> invalid_arg ("platform boot failed: " ^ Os_error.to_string e));
  t

let find_account t user = Hashtbl.find_opt t.accounts user

let account_exn t user =
  match find_account t user with
  | Some account -> account
  | None -> invalid_arg ("no such account: " ^ user)

let accounts t =
  Hashtbl.fold (fun _ account acc -> account :: acc) t.accounts []
  |> List.sort (fun a b -> String.compare a.Account.user b.Account.user)

let read_protected t = t.read_protected

let owner_of_tag t tag =
  Option.bind (Hashtbl.find_opt t.tag_owner (Tag.id tag)) (find_account t)

let register_tag_owner t tag ~user =
  Hashtbl.replace t.tag_owner (Tag.id tag) user

(* Run with the user's own authority: their labels raised enough to
   write their own files, and their full capability set. *)
let as_user t (account : Account.t) ~name f =
  let labels =
    Flow.make ~integrity:(Label.singleton account.Account.write_tag) ()
  in
  with_ctx t ~name ~owner:account.Account.principal ~labels
    ~caps:account.Account.caps f

let write_user_record t (account : Account.t) ~file record =
  let path = user_file account.Account.user file in
  let data = Record.encode record in
  as_user t account ~name:("write:" ^ path) (fun ctx ->
      if Syscall.file_exists ctx path then Syscall.write_file ctx path ~data
      else
        Syscall.create_file ctx path ~labels:(Account.data_labels account)
          ~data)

let read_user_record t (account : Account.t) ~file =
  let path = user_file account.Account.user file in
  as_user t account ~name:("read:" ^ path) (fun ctx ->
      match Syscall.read_file_taint ctx path with
      | Error _ as e -> e
      | Ok data ->
          Result.map_error (fun m -> Os_error.Invalid m) (Record.decode data))

let user_mkdir t (account : Account.t) ~dir =
  let path = user_file account.Account.user dir in
  as_user t account ~name:("mkdir:" ^ path) (fun ctx ->
      Syscall.mkdir ctx path
        ~labels:(Flow.make ~secrecy:(Account.secrecy_labels account) ()))

let delete_user_file t (account : Account.t) ~file =
  let path = user_file account.Account.user file in
  as_user t account ~name:("delete:" ^ path) (fun ctx ->
      match Syscall.add_taint ctx (Account.secrecy_labels account) with
      | Error _ as e -> e
      | Ok () -> Syscall.unlink ctx path)

let signup t ~user ~password =
  let valid_name name =
    name <> ""
    && String.for_all
         (fun c ->
           (c >= 'a' && c <= 'z')
           || (c >= 'A' && c <= 'Z')
           || (c >= '0' && c <= '9')
           || c = '_' || c = '-')
         name
  in
  if Hashtbl.mem t.accounts user then Error (user ^ ": already registered")
  else if not (valid_name user) then Error "invalid user name"
  else begin
    let account = Account.make ~user ~password in
    Hashtbl.replace t.accounts user account;
    Hashtbl.replace t.tag_owner (Tag.id account.Account.secret_tag) user;
    Hashtbl.replace t.tag_owner (Tag.id account.Account.write_tag) user;
    let seeded =
      let home =
        with_ctx t ~name:("signup:" ^ user)
          ~owner:account.Account.principal (fun ctx ->
            Syscall.mkdir ctx (user_dir user)
              ~labels:
                (Flow.make ~secrecy:(Account.secrecy_labels account) ()))
      in
      match home with
      | Error _ as e -> e
      | Ok () -> (
          let profile =
            Record.of_fields [ ("user", user); ("display", user) ]
          in
          match write_user_record t account ~file:"profile" profile with
          | Error _ as e -> e
          | Ok () ->
              write_user_record t account ~file:"friends"
                (Record.of_fields [ ("friends", "") ]))
    in
    match seeded with
    | Ok () -> Ok account
    | Error e ->
        Hashtbl.remove t.accounts user;
        Error (Os_error.to_string e)
  end

let enable_read_protection t (account : Account.t) =
  let tag =
    match account.Account.read_tag with
    | Some tag -> tag
    | None ->
        let tag =
          Tag.fresh ~name:(account.Account.user ^ ".read") ~restricted:true
            Tag.Secrecy
        in
        account.Account.read_tag <- Some tag;
        account.Account.caps <-
          Capability.Set.grant_dual tag account.Account.caps;
        t.read_protected <- account :: t.read_protected;
        tag
  in
  Hashtbl.replace t.tag_owner (Tag.id tag) account.Account.user;
  (* Relabel the user's existing tree so the protection covers old
     data too: every node gains the restricted tag in its secrecy.
     Raising labels across a tree is not expressible as app-level
     syscalls (a process tainted enough to enumerate the tree may no
     longer write to its less-tainted leaves), so the provider acts
     here as the label authority, directly against the filesystem —
     this function is TCB by construction. *)
  let fs = Kernel.fs t.kernel in
  let add_read_tag (labels : Flow.labels) =
    { labels with Flow.secrecy = Label.add tag labels.Flow.secrecy }
  in
  let rec walk path =
    match Fs.stat fs path with
    | Error _ as e -> e
    | Ok st -> (
        match Fs.set_labels fs path ~labels:(add_read_tag st.Fs.labels) with
        | Error _ as e -> e
        | Ok () ->
            if st.Fs.kind = Fs.Directory then
              match Fs.readdir fs path with
              | Error _ as e -> e
              | Ok (names, _) ->
                  List.fold_left
                    (fun acc name ->
                      match acc with
                      | Error _ as e -> e
                      | Ok () -> walk (path ^ "/" ^ name))
                    (Ok ()) names
            else Ok ())
  in
  (match walk (user_dir account.Account.user) with
  | Ok () -> ()
  | Error e ->
      invalid_arg ("read protection relabel failed: " ^ Os_error.to_string e));
  Kernel.record t.kernel ~pid:0
    (Audit.Label_changed
       {
         old_labels = Flow.bottom;
         new_labels = Flow.make ~secrecy:(Label.singleton tag) ();
         decision = Ok ();
       });
  tag

let authenticate t ~user ~password =
  match find_account t user with
  | None -> false
  | Some account -> Account.verify_password account password

let login t ~user ~password =
  if not (authenticate t ~user ~password) then Error "bad credentials"
  else
    Ok (W5_http.Session.start t.sessions ~user ~now:(Kernel.tick t.kernel))

let logout t ~sid = W5_http.Session.destroy t.sessions ~sid

let session_user t ~sid =
  Option.map
    (fun s -> s.W5_http.Session.user)
    (W5_http.Session.find t.sessions ~sid)

let expire_sessions t ~max_age =
  W5_http.Session.expire_older_than t.sessions
    ~tick:(Kernel.tick t.kernel - max_age);
  W5_http.Session.active t.sessions

let enable_app t ~user ~app =
  match find_account t user with
  | None -> Error ("no such user: " ^ user)
  | Some account ->
      if App_registry.find t.registry app = None then
        Error ("no such app: " ^ app)
      else begin
        if not (Policy.app_enabled account.Account.policy app) then begin
          Policy.enable_app account.Account.policy app;
          App_registry.record_install t.registry app
        end;
        Ok ()
      end

let app_caps_for t ~viewer ~app =
  (* Write capability: the requesting user's, if they delegated writes
     to this app — the app acts on the viewer's data. *)
  let caps =
    match viewer with
    | Some (account : Account.t)
      when Policy.write_delegated account.Account.policy app ->
        Capability.Set.add
          (Capability.make account.Account.write_tag Capability.Plus)
          Capability.Set.empty
    | Some _ | None -> Capability.Set.empty
  in
  (* Read capabilities: granted by each protected datum's *owner*, not
     the viewer — "only authorized software can read Bob's secrets in
     the first place" (§3.1). Only accounts with a read tag can grant
     one, so the scan is over those, not the whole population. *)
  List.fold_left
    (fun caps (account : Account.t) ->
      match account.Account.read_tag with
      | Some rt when Policy.read_granted account.Account.policy app ->
          Capability.Set.add (Capability.make rt Capability.Plus) caps
      | Some _ | None -> caps)
    caps t.read_protected
