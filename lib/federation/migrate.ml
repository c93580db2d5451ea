open W5_difc
open W5_os
open W5_platform
module Fault = W5_fault.Fault

type entry = {
  rel_path : string;
  content : string;
}

type bundle = entry list

(* Consult [faults] at [op]:[file] outside any syscall context (a
   crash must surface as an error to the caller, not be swallowed by
   with_ctx). *)
let faulty faults ~op ~file =
  match Fault.one_shot faults ~op ~file ~on_drop:ignore with
  | Ok () -> Ok ()
  | Error `Lost -> Error (Os_error.Invalid (op ^ " " ^ file ^ ": lost"))
  | Error `Crashed -> Error (Os_error.Invalid ("crash: " ^ op ^ " " ^ file))

let export_bundle ?(faults = Fault.none ()) platform (account : Account.t) =
  match faulty faults ~op:"migrate.export" ~file:account.Account.user with
  | Error _ as e -> e
  | Ok () ->
  let home = Platform.user_dir account.Account.user in
  Platform.with_ctx platform
    ~name:("migrate.export:" ^ account.Account.user)
    ~caps:(Sync.transfer_caps account)
    (fun ctx ->
      let rec walk path acc =
        match acc with
        | Error _ as e -> e
        | Ok entries -> (
            match Syscall.stat ctx path with
            | Error _ as e -> e
            | Ok st -> (
                match st.Fs.kind with
                | Fs.Regular -> (
                    match Syscall.read_file_taint ctx path with
                    | Error _ as e -> e
                    | Ok content -> (
                        (* shed the taint now; if the grants cannot
                           clear it the export aborts *)
                        match
                          Sync.declassify_for_export ctx account
                            ~context:"federation.migrate"
                        with
                        | Error _ as e -> e
                        | Ok () ->
                            let rel =
                              String.sub path
                                (String.length home + 1)
                                (String.length path - String.length home - 1)
                            in
                            Ok ({ rel_path = rel; content } :: entries)))
                | Fs.Directory -> (
                    (* stay tainted through the listing (strict
                       readdir needs it); files declassify on exit *)
                    match Syscall.add_taint ctx st.Fs.labels.Flow.secrecy with
                    | Error _ as e -> e
                    | Ok () -> (
                        match Syscall.readdir ctx path with
                        | Error _ as e -> e
                        | Ok names ->
                            List.fold_left
                              (fun acc name -> walk (path ^ "/" ^ name) acc)
                              (Ok entries) names))))
      in
      Result.map
        (fun entries ->
          List.sort (fun a b -> String.compare a.rel_path b.rel_path) entries)
        (walk home (Ok [])))

let import_bundle ?(faults = Fault.none ()) platform (account : Account.t)
    bundle =
  let written = ref 0 in
  let rec ensure_dirs rel =
    match String.rindex_opt rel '/' with
    | None -> Ok ()
    | Some i -> (
        let dir = String.sub rel 0 i in
        match ensure_dirs dir with
        | Error _ as e -> e
        | Ok () -> (
            match Platform.user_mkdir platform account ~dir with
            | Ok () | Error (Os_error.Already_exists _) -> Ok ()
            | Error _ as e -> e))
  in
  let import_one acc { rel_path; content } =
    match acc with
    | Error _ as e -> e
    | Ok () -> (
        (* per-entry delivery: a crash mid-bundle leaves a partial
           import; a rerun overwrites idempotently and completes it *)
        match faulty faults ~op:"migrate.import" ~file:rel_path with
        | Error _ as e -> e
        | Ok () ->
        match ensure_dirs rel_path with
        | Error _ as e -> e
        | Ok () -> (
            let result =
              Platform.with_ctx platform
                ~name:("migrate.import:" ^ rel_path)
                ~owner:account.Account.principal
                ~labels:
                  (Flow.make
                     ~integrity:(Label.singleton account.Account.write_tag)
                     ())
                ~caps:account.Account.caps
                (fun ctx ->
                  let path = Platform.user_file account.Account.user rel_path in
                  if Syscall.file_exists ctx path then
                    Syscall.write_file ctx path ~data:content
                  else
                    Syscall.create_file ctx path
                      ~labels:(Account.data_labels account)
                      ~data:content)
            in
            match result with
            | Error _ as e -> e
            | Ok () ->
                incr written;
                Ok ()))
  in
  Result.map (fun () -> !written) (List.fold_left import_one (Ok ()) bundle)

let migrate_account ?faults ~from_platform ~from_account ~to_platform
    ~to_account () =
  let kf = Platform.kernel from_platform in
  let tracer_from = W5_os.Kernel.tracer kf in
  let clock_from () = W5_os.Kernel.tick kf in
  W5_obs.Tracer.with_span tracer_from ~clock:clock_from
    ~fields:[ ("user", from_account.Account.user) ]
    "migrate.account"
    (fun () ->
      match
        W5_obs.Tracer.with_span tracer_from ~clock:clock_from "migrate.export"
          (fun () -> export_bundle ?faults from_platform from_account)
      with
      | Error _ as e -> e
      | Ok bundle ->
          (* the import runs on the destination provider's kernel; the
             carried context keeps both halves one trace *)
          let kt = Platform.kernel to_platform in
          W5_obs.Tracer.handoff tracer_from
            ~origin:(Principal.name (Platform.provider from_platform))
            ~tick:(clock_from ()) ~into:(W5_os.Kernel.tracer kt)
            ~clock:(fun () -> W5_os.Kernel.tick kt)
            ~fields:[ ("entries", string_of_int (List.length bundle)) ]
            "migrate.import"
            (fun () -> import_bundle ?faults to_platform to_account bundle))

(* The bundle file format reuses the record escaping: one entry per
   line, [path=content], both escaped. *)
let encode_bundle bundle =
  W5_store.Record.encode
    (W5_store.Record.of_fields
       (List.map (fun { rel_path; content } -> (rel_path, content)) bundle))

let publish_takeout_app platform ~dev =
  let handler ctx (env : App_registry.env) =
    match env.App_registry.viewer with
    | None -> ignore (Syscall.respond ctx "please log in")
    | Some user -> (
        match Platform.find_account platform user with
        | None -> ignore (Syscall.respond ctx "no such account")
        | Some account -> (
            match export_bundle platform account with
            | Error e ->
                ignore
                  (Syscall.respond ctx
                     ("takeout failed: " ^ Os_error.to_string e))
            | Ok bundle -> ignore (Syscall.respond ctx (encode_bundle bundle))))
  in
  App_registry.publish (Platform.registry platform) ~dev ~name:"takeout"
    ~version:"1.0"
    ~source:
      (App_registry.Open_source
         "takeout: the viewer's whole home directory as a portable bundle")
    handler

let decode_bundle data =
  Result.map
    (fun record ->
      List.map
        (fun (rel_path, content) -> { rel_path; content })
        (W5_store.Record.fields record))
    (W5_store.Record.decode data)
