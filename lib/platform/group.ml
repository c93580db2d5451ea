open W5_difc
open W5_os

type t = {
  g_name : string;
  g_tag : Tag.t;
  g_founder : string;
  mutable g_members : string list;
}

let groups = Kernel.Local.create (fun () -> Hashtbl.create 16)
let registry_of platform = Kernel.Local.get groups (Platform.kernel platform)

let find platform ~name = Hashtbl.find_opt (registry_of platform) name

let all platform =
  Hashtbl.fold (fun _ g acc -> g :: acc) (registry_of platform) []
  |> List.sort (fun a b -> String.compare a.g_name b.g_name)
let name group = group.g_name
let tag group = group.g_tag
let founder group = group.g_founder
let members group = group.g_members
let is_member group ~user = List.mem user group.g_members
let dir group = "/groups/" ^ group.g_name
let groups_root = "/groups"

let gate_name group = "declass/" ^ group.g_founder ^ "/group-" ^ group.g_name

let install_gate platform group =
  (* The gate holds dual privilege over the group tag: [t+] to absorb
     group-tainted payloads, [t-] to release them to members. *)
  let caps = Capability.Set.grant_dual group.g_tag Capability.Set.empty in
  let entry ctx arg =
    match Declassifier.decode_arg arg with
    | Some (Some v, data) when is_member group ~user:v ->
        ignore (Syscall.declassify_self ctx group.g_tag);
        ignore (Syscall.respond ctx data)
    | Some _ | None -> ()
  in
  let founder_account = Platform.account_exn platform group.g_founder in
  Kernel.register_gate (Platform.kernel platform) ~name:(gate_name group)
    ~owner:founder_account.Account.principal ~caps ~entry

let create platform ~founder ~name =
  if String.contains name '/' || name = "" then Error "invalid group name"
  else if Hashtbl.mem (registry_of platform) name then
    Error (name ^ ": group exists")
  else begin
    let g_tag =
      Tag.fresh ~name:("group:" ^ name) ~restricted:true Tag.Secrecy
    in
    let group =
      {
        g_name = name;
        g_tag;
        g_founder = founder.Account.user;
        g_members = [ founder.Account.user ];
      }
    in
    (* The founder holds dual privilege and owns the tag's policy. *)
    founder.Account.caps <- Capability.Set.grant_dual g_tag founder.Account.caps;
    Platform.register_tag_owner platform g_tag ~user:founder.Account.user;
    let made_dirs =
      Platform.with_ctx platform
        ~name:("group:" ^ name)
        ~caps:founder.Account.caps (fun ctx ->
          (match Syscall.mkdir ctx groups_root ~labels:Flow.bottom with
          | Ok () | Error (Os_error.Already_exists _) -> ()
          | Error _ -> ());
          Syscall.mkdir ctx (dir group)
            ~labels:(Flow.make ~secrecy:(Label.singleton g_tag) ()))
    in
    match made_dirs with
    | Error e -> Error (Os_error.to_string e)
    | Ok () ->
        install_gate platform group;
        Policy.authorize_declassifier founder.Account.policy ~tag:g_tag
          ~gate:(gate_name group);
        Hashtbl.replace (registry_of platform) name group;
        Ok group
  end

let add_member platform group ~user =
  match Platform.find_account platform user with
  | None -> Error ("no such user: " ^ user)
  | Some account ->
      if not (is_member group ~user) then begin
        group.g_members <- group.g_members @ [ user ];
        account.Account.caps <-
          Capability.Set.add
            (Capability.make group.g_tag Capability.Plus)
            account.Account.caps
      end;
      Ok ()

let remove_member platform group ~user =
  if user = group.g_founder then Error "cannot remove the founder"
  else begin
    group.g_members <- List.filter (( <> ) user) group.g_members;
    (match Platform.find_account platform user with
    | Some account ->
        account.Account.caps <-
          Capability.Set.remove
            (Capability.make group.g_tag Capability.Plus)
            account.Account.caps
    | None -> ());
    Ok ()
  end

let member_caps platform ~user =
  Hashtbl.fold
    (fun _ group caps ->
      if is_member group ~user then
        Capability.Set.add (Capability.make group.g_tag Capability.Plus) caps
      else caps)
    (registry_of platform) Capability.Set.empty

let post platform group ~author ~id ~body =
  if not (is_member group ~user:author.Account.user) then
    Error (Os_error.Permission (author.Account.user ^ ": not a member"))
  else
    let labels = Flow.make ~secrecy:(Label.singleton group.g_tag) () in
    Platform.with_ctx platform
      ~name:("group-post:" ^ group.g_name)
      ~labels
      ~caps:
        (Capability.Set.add
           (Capability.make group.g_tag Capability.Plus)
           Capability.Set.empty)
      (fun ctx ->
        let path = dir group ^ "/" ^ id in
        let data =
          W5_store.Record.encode
            (W5_store.Record.of_fields
               [ ("author", author.Account.user); ("body", body) ])
        in
        if Syscall.file_exists ctx path then Syscall.write_file ctx path ~data
        else Syscall.create_file ctx path ~labels ~data)

let read_posts platform group ~reader =
  if not (is_member group ~user:reader.Account.user) then
    Error
      (Os_error.Denied (W5_difc.Flow.Unauthorized_add (Label.singleton group.g_tag)))
  else
    Platform.with_ctx platform
      ~name:("group-read:" ^ group.g_name)
      ~caps:
        (Capability.Set.add
           (Capability.make group.g_tag Capability.Plus)
           Capability.Set.empty)
      (fun ctx ->
        match Syscall.stat ctx (dir group) with
        | Error _ as e -> e
        | Ok st -> (
            match Syscall.add_taint ctx st.Fs.labels.Flow.secrecy with
            | Error _ as e -> e
            | Ok () -> (
                match Syscall.readdir ctx (dir group) with
                | Error _ as e -> e
                | Ok ids ->
                    let posts =
                      List.filter_map
                        (fun id ->
                          match
                            Syscall.read_file_taint ctx (dir group ^ "/" ^ id)
                          with
                          | Error _ -> None
                          | Ok data -> (
                              match W5_store.Record.decode data with
                              | Error _ -> None
                              | Ok r ->
                                  Some
                                    ( id,
                                      Printf.sprintf "%s: %s"
                                        (W5_store.Record.get_or r "author"
                                           ~default:"?")
                                        (W5_store.Record.get_or r "body"
                                           ~default:"") )))
                        ids
                    in
                    Ok posts)))
