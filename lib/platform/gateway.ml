open W5_difc
open W5_os
open W5_http

let invites = Kernel.Local.create Invite.create_registry
let invites_of platform = Kernel.Local.get invites (Platform.kernel platform)

(* Every handled request spends or banks error budget for its route,
   and [w5 health] renders the ledger next to peer health. *)
let slos = Kernel.Local.create (fun () -> W5_obs.Health.Slo.create ())
let slo_of platform = Kernel.Local.get slos (Platform.kernel platform)

let viewer_of platform request =
  match Request.cookie request Session.cookie_name with
  | None -> None
  | Some sid ->
      Option.bind
        (Platform.session_user platform ~sid)
        (Platform.find_account platform)

(* Build the env hooks that let an app consult the viewer's module
   choices and run other registered modules inline. *)
let rec make_env platform ~viewer ~request ~self_id =
  let module_for_slot slot =
    Option.bind viewer (fun (a : Account.t) ->
        Policy.module_for a.Account.policy ~slot)
  in
  let run_module ctx ~module_id sub_request =
    let registry = Platform.registry platform in
    let version =
      Option.bind viewer (fun (a : Account.t) ->
          Policy.pinned_version a.Account.policy ~app:module_id)
    in
    match App_registry.resolve registry ~id:module_id ?version () with
    | None -> Error ("no such module: " ^ module_id)
    | Some (_, v) -> (
        (* Inline call: same process, same labels. Metered, so a
           module that recurses into itself dies by CPU quota instead
           of by stack. The kernel hands back the callee's response
           and keeps the caller's. *)
        (match Syscall.consume ctx ~cpu:5 with Ok () -> () | Error _ -> ());
        let sub_env =
          make_env platform ~viewer ~request:sub_request ~self_id:module_id
        in
        match
          Kernel.capture_response ctx (fun () ->
              v.App_registry.handler ctx sub_env)
        with
        | Some (body, _) -> Ok body
        | None -> Error (module_id ^ ": no response"))
  in
  {
    App_registry.viewer =
      Option.map (fun (a : Account.t) -> a.Account.user) viewer;
    request;
    self_id;
    module_for_slot;
    run_module;
  }

(* Admission half of an application dispatch: resolve, vet, spawn —
   everything up to (but not including) running the body. [Error r]
   short-circuits with a finished response; [Ok proc] is a spawned
   process the caller must drive (synchronously via {!Kernel.run_proc}
   or interleaved via {!W5_os.Sched}). *)
let spawn_app platform ~viewer ~app_id ?version request =
  let registry = Platform.registry platform in
  let version =
    match version with
    | Some _ as v -> v
    | None ->
        Option.bind viewer (fun (a : Account.t) ->
            Policy.pinned_version a.Account.policy ~app:app_id)
  in
  match App_registry.resolve registry ~id:app_id ?version () with
  | None -> Error (Response.not_found app_id)
  | Some (_, v)
    when (match viewer with
         | Some (a : Account.t) -> Policy.require_vetted a.Account.policy
         | None -> false)
         && not
              (List.for_all
                 (Platform.is_vetted platform)
                 (app_id :: v.App_registry.imports)) ->
      (* Integrity protection (§3.1): this user runs only applications
         whose every component is on the vetted list. *)
      Error
        (Response.forbidden
           (app_id ^ ": not fully vetted (integrity protection is on)"))
  | Some (app, v) -> (
      Platform.count_request platform;
      let caps =
        Capability.Set.union
          (Platform.app_caps_for platform ~viewer ~app:app_id)
          (match viewer with
          | Some (a : Account.t) ->
              Group.member_caps platform ~user:a.Account.user
          | None -> Capability.Set.empty)
      in
      let env = make_env platform ~viewer ~request ~self_id:app_id in
      let body ctx = v.App_registry.handler ctx env in
      let kernel = Platform.kernel platform in
      match
        Kernel.spawn kernel ~name:app_id ~owner:app.App_registry.dev
          ~labels:Flow.bottom ~caps
          ~limits:(Platform.app_limits platform ~app:app_id)
          body
      with
      | Error e -> Error (Response.server_error (Os_error.to_string e))
      | Ok proc -> Ok proc)

(* Conclusion half: the process has finished (or been killed); read
   its state and response and push the answer through the perimeter. *)
let conclude_app platform ~viewer proc =
  match (proc.Proc.state, proc.Proc.response) with
  | Proc.Killed reason, _ ->
      if String.length reason >= 5 && String.sub reason 0 5 = "quota" then
        Response.too_many_requests ("application killed: " ^ reason)
      else
        (* Data-free error: the developer reads /audit instead
           of a core dump (§3.5). *)
        Response.server_error "application error (see /audit)"
  | _, None -> Response.server_error "application sent no response"
  | _, Some (data, labels) -> (
      match
        Perimeter.export platform ~source:proc.Proc.pid ~viewer ~data ~labels
          ()
      with
      | Error refusal -> Response.forbidden (Perimeter.refusal_to_string refusal)
      | Ok out ->
          let allow_js =
            match viewer with
            | Some (a : Account.t) -> Policy.allow_javascript a.Account.policy
            | None -> false
          in
          let out = if allow_js then out else Html.strip_scripts out in
          Response.html out)

(* ---- provider-written front-end pages ---- *)

let home platform =
  let registry = Platform.registry platform in
  let ids = App_registry.list_ids registry in
  let items =
    List.map
      (fun id ->
        Printf.sprintf "%s (%d installs)"
          id (App_registry.installs registry id))
      ids
  in
  Response.html
    (Html.page ~title:"W5"
       (Html.element "h1" (Html.text "World Wide Web Without Walls")
       ^ Html.ul items))

let with_login platform request k =
  match viewer_of platform request with
  | None -> Response.unauthorized "login required"
  | Some account -> k account

let handle_signup platform request =
  match (Request.param request "user", Request.param request "pass") with
  | Some user, Some pass -> (
      match Platform.signup platform ~user ~password:pass with
      | Error e -> Response.bad_request e
      | Ok _ -> (
          match Platform.login platform ~user ~password:pass with
          | Error e -> Response.server_error e
          | Ok session ->
              Response.with_cookie
                (Response.html (Html.page ~title:"welcome" "account created"))
                ~name:Session.cookie_name ~value:session.Session.sid))
  | _ -> Response.bad_request "user and pass required"

let handle_login platform request =
  match (Request.param request "user", Request.param request "pass") with
  | Some user, Some pass -> (
      match Platform.login platform ~user ~password:pass with
      | Error e -> Response.unauthorized e
      | Ok session ->
          Response.with_cookie
            (Response.html (Html.page ~title:"login" "logged in"))
            ~name:Session.cookie_name ~value:session.Session.sid)
  | _ -> Response.bad_request "user and pass required"

let handle_logout platform request =
  (match Request.cookie request Session.cookie_name with
  | Some sid -> Platform.logout platform ~sid
  | None -> ());
  Response.html (Html.page ~title:"logout" "logged out")

let handle_enable platform request =
  with_login platform request (fun account ->
      match Request.param request "app" with
      | None -> Response.bad_request "app required"
      | Some app -> (
          match
            Platform.enable_app platform ~user:account.Account.user ~app
          with
          | Error e -> Response.bad_request e
          | Ok () -> Response.html (Html.page ~title:"enabled" ("enabled " ^ app))))

(* /settings?action=… — the Web-forms policy front-end of §2. *)
let handle_settings platform request =
  with_login platform request (fun account ->
      let policy = account.Account.policy in
      let ok msg = Response.html (Html.page ~title:"settings" msg) in
      match Request.param_or request "action" ~default:"" with
      | "allow_js" ->
          Policy.set_allow_javascript policy
            (Request.param request "value" = Some "on");
          ok "javascript preference saved"
      | "declassifier" -> (
          match Request.param request "gate" with
          | None -> Response.bad_request "gate required"
          | Some gate ->
              if not (Kernel.gate_exists (Platform.kernel platform) gate) then
                Response.bad_request ("no such gate: " ^ gate)
              else begin
                Policy.authorize_declassifier policy
                  ~tag:account.Account.secret_tag ~gate;
                (match account.Account.read_tag with
                | Some rt -> Policy.authorize_declassifier policy ~tag:rt ~gate
                | None -> ());
                ok ("declassifier set to " ^ gate)
              end)
      | "delegate_write" -> (
          match Request.param request "app" with
          | None -> Response.bad_request "app required"
          | Some app ->
              Policy.delegate_write policy app;
              ok ("write delegated to " ^ app))
      | "revoke_write" -> (
          match Request.param request "app" with
          | None -> Response.bad_request "app required"
          | Some app ->
              Policy.revoke_write policy app;
              ok ("write revoked from " ^ app))
      | "module" -> (
          match (Request.param request "slot", Request.param request "module")
          with
          | Some slot, Some module_id ->
              Policy.choose_module policy ~slot ~module_id;
              ok (Printf.sprintf "slot %s -> %s" slot module_id)
          | _ -> Response.bad_request "slot and module required")
      | "pin" -> (
          match (Request.param request "app", Request.param request "version")
          with
          | Some app, Some version ->
              Policy.pin_version policy ~app ~version;
              ok (Printf.sprintf "pinned %s at %s" app version)
          | _ -> Response.bad_request "app and version required")
      | "require_vetted" ->
          Policy.set_require_vetted policy
            (Request.param request "value" = Some "on");
          ok "integrity protection preference saved"
      | "read_protect" ->
          let tag = Platform.enable_read_protection platform account in
          ok ("read protection enabled: " ^ W5_difc.Tag.name tag)
      | "grant_read" -> (
          match Request.param request "app" with
          | None -> Response.bad_request "app required"
          | Some app ->
              Policy.grant_read policy app;
              ok ("read granted to " ^ app))
      | other -> Response.bad_request ("unknown settings action: " ^ other))

let handle_invite platform request =
  with_login platform request (fun account ->
      match (Request.param request "to", Request.param request "app") with
      | Some to_user, Some app -> (
          let suggest_write = Request.param request "write" = Some "on" in
          match
            Invite.send (invites_of platform) platform
              ~from_user:account.Account.user ~to_user ~app ~suggest_write ()
          with
          | Error e -> Response.bad_request e
          | Ok invite ->
              Response.html
                (Html.page ~title:"invited"
                   (Html.text ("invitation sent: " ^ invite.Invite.invite_id))))
      | _ -> Response.bad_request "to and app required")

let handle_invites_list platform request =
  with_login platform request (fun account ->
      let pending =
        Invite.pending (invites_of platform) ~to_user:account.Account.user
      in
      let lines =
        List.map
          (fun (i : Invite.t) ->
            Printf.sprintf "%s: %s invites you to %s%s" i.Invite.invite_id
              i.Invite.from_user i.Invite.app
              (if i.Invite.suggest_write then " (with write access)" else ""))
          pending
      in
      Response.html
        (Html.page ~title:"invitations" (Html.ul (List.map Html.escape lines))))

let handle_invite_answer platform request ~accept =
  with_login platform request (fun account ->
      match Request.param request "id" with
      | None -> Response.bad_request "id required"
      | Some invite_id -> (
          let registry = invites_of platform in
          let result =
            if accept then
              Invite.accept registry platform ~invite_id
                ~to_user:account.Account.user
            else
              Invite.decline registry ~invite_id ~to_user:account.Account.user
          in
          match result with
          | Error e -> Response.bad_request e
          | Ok () ->
              Response.html
                (Html.page ~title:"invitation"
                   (Html.text (if accept then "accepted" else "declined")))))

let handle_source platform request =
  match Request.param request "app" with
  | None -> Response.bad_request "app required"
  | Some app -> (
      let version = Request.param request "version" in
      match
        App_registry.source_of (Platform.registry platform) ~id:app ?version ()
      with
      | None -> Response.not_found (app ^ " (not open source)")
      | Some text ->
          Response.html
            (Html.page ~title:("source of " ^ app)
               (Html.element "pre" (Html.text text))))

let handle_group_create platform request =
  with_login platform request (fun account ->
      match Request.param request "name" with
      | None -> Response.bad_request "name required"
      | Some name -> (
          match Group.create platform ~founder:account ~name with
          | Error e -> Response.bad_request e
          | Ok group ->
              Response.html
                (Html.page ~title:"group"
                   (Html.text ("created group " ^ Group.name group)))))

let handle_group_member platform request ~add =
  with_login platform request (fun account ->
      match (Request.param request "name", Request.param request "user") with
      | Some name, Some user -> (
          match Group.find platform ~name with
          | None -> Response.bad_request ("no such group: " ^ name)
          | Some group ->
              if Group.founder group <> account.Account.user then
                Response.forbidden "only the founder manages membership"
              else
                let result =
                  if add then Group.add_member platform group ~user
                  else Group.remove_member platform group ~user
                in
                (match result with
                | Error e -> Response.bad_request e
                | Ok () ->
                    Response.html
                      (Html.page ~title:"group"
                         (Html.text
                            (user ^ (if add then " added to " else " removed from ")
                            ^ name)))))
      | _ -> Response.bad_request "name and user required")

let handle_me platform request =
  with_login platform request (fun account ->
      let rows =
        List.map
          (fun (k, v) ->
            Html.element "b" (Html.text k) ^ ": "
            ^ Html.text (if v = "" then "(none)" else v))
          (Policy.summary account.Account.policy)
      in
      Response.html
        (Html.page
           ~title:("settings for " ^ account.Account.user)
           (Html.element "h1" (Html.text account.Account.user) ^ Html.ul rows)))

let handle_audit platform request =
  let int_param name =
    Option.bind (Request.param request name) int_of_string_opt
  in
  (* structured filters, one scan of the log:
     /audit?pid=7&kind=flow_checked&from=10&to=99 *)
  let entries =
    Audit.query
      (Kernel.audit (Platform.kernel platform))
      ?pid:(int_param "pid")
      ?kind:(Request.param request "kind")
      ?seq_from:(int_param "from") ?seq_to:(int_param "to")
      ~denials_only:true ()
  in
  let lines =
    List.map (fun e -> Format.asprintf "%a" Audit.pp_entry e) entries
  in
  (* optional substring filter, e.g. /audit?filter=fs.write *)
  let lines =
    match Request.param request "filter" with
    | None -> lines
    | Some needle ->
        List.filter (fun line -> Substring.contains line needle) lines
  in
  Response.html
    (Html.page ~title:"audit: recent denials"
       (Html.ul (List.map Html.escape lines)))

(* Per-client throttling applies to every application dispatch,
   whether reached by path or by vanity host. *)
let throttled platform ~viewer request =
  match Platform.rate_limit platform with
  | None -> false
  | Some limiter ->
      let key =
        match viewer with
        | Some (a : Account.t) -> "user:" ^ a.Account.user
        | None -> "client:" ^ request.Request.client
      in
      not
        (Rate_limit.allow limiter ~key
           ~now:(Kernel.tick (Platform.kernel platform)))

(* Routing resolves either to a provider front-end page (trusted,
   cheap, never a process: [submit] renders it inside the request's
   span) or to an application dispatch, which [submit] spawns and
   [conclude] runs (if no scheduler has) and exports. Throttling and
   the enablement check happen here. *)
type routed =
  | Page of (unit -> Response.t)
  | Dispatch of { app_id : string; version : string option }

let not_enabled_page app_id =
  (* One-click adoption: show the invitation instead of silently
     running code the user never chose. *)
  Response.html
    (Html.page ~title:"enable?"
       (Printf.sprintf
          "app %s is not enabled for you; POST /enable?app=%s to accept \
           the invitation"
          (Html.escape app_id) (Html.escape app_id)))

let route_to_app platform request ~viewer ~app_id =
  if throttled platform ~viewer request then
    Page (fun () -> Response.too_many_requests "rate limit exceeded")
  else
    match viewer with
    | Some account when not (Policy.app_enabled account.Account.policy app_id)
      ->
        Page (fun () -> not_enabled_page app_id)
    | Some _ | None ->
        Dispatch { app_id; version = Request.param request "version" }

let route_request platform request ~viewer ~dns_route =
  let page handle = Page (fun () -> handle platform request) in
  match dns_route with
  | Some app_id -> route_to_app platform request ~viewer ~app_id
  | None -> (
      match request.Request.uri.Uri.segments with
      | [] -> Page (fun () -> home platform)
      | [ "signup" ] -> page handle_signup
      | [ "login" ] -> page handle_login
      | [ "logout" ] -> page handle_logout
      | [ "enable" ] -> page handle_enable
      | [ "invite" ] -> page handle_invite
      | [ "invites" ] -> page handle_invites_list
      | [ "invite_accept" ] -> page (handle_invite_answer ~accept:true)
      | [ "invite_decline" ] -> page (handle_invite_answer ~accept:false)
      | [ "settings" ] -> page handle_settings
      | [ "me" ] -> page handle_me
      | [ "group_create" ] -> page handle_group_create
      | [ "group_add" ] -> page (handle_group_member ~add:true)
      | [ "group_remove" ] -> page (handle_group_member ~add:false)
      | [ "source" ] -> page handle_source
      | [ "audit" ] -> page handle_audit
      | "app" :: dev :: name :: _rest ->
          route_to_app platform request ~viewer ~app_id:(dev ^ "/" ^ name)
      | _ -> Page (fun () -> Response.not_found request.Request.uri.Uri.path))

(* The telemetry route label: the application id or the front-end page
   name — a closed set bounded by the registry, never a raw path (raw
   paths could smuggle user-chosen bytes into series names; the
   registry cardinality cap is the backstop). *)
let route_label request ~dns_route =
  match dns_route with
  | Some app_id -> "vhost:" ^ app_id
  | None -> (
      match request.Request.uri.Uri.segments with
      | [] -> "home"
      | "app" :: dev :: name :: _ -> "app:" ^ dev ^ "/" ^ name
      | segment :: _ -> segment)

(* Virtual hosts: a Host header naming a registered vanity host routes
   straight to its application, whatever the path. *)
let dns_route_of platform request =
  match (Platform.dns platform, Headers.get request.Request.headers "host")
  with
  | Some dns, Some host -> (
      match Dns.resolve dns ~host with
      | Some (Dns.App app_id) -> Some app_id
      | Some Dns.Front_end | Some (Dns.Cname _) | None -> None)
  | _ -> None

(* ---- one request path: submit now, conclude after a drain ---- *)

type pending = {
  p_route : string;
  p_viewer : Account.t option;
  p_submit_tick : int;
  p_state : pending_state;
}

and pending_state =
  | Done of Response.t * int  (** finished at submit time, at this tick *)
  | In_flight of Proc.t

(* One balanced span per request, named for its route and opened at
   the admission tick: slices interleave, spans must not. [work] is the
   request's own work (a page's render, or its process's run and
   export), so the syscalls, gate calls and export in it nest under
   the span. Returns the response and the tick the request ended. *)
let request_span platform ~route ~t0 work =
  let kernel = Platform.kernel platform in
  let tracer = Kernel.tracer kernel in
  if not (W5_obs.Tracer.enabled tracer) then work ()
  else begin
    W5_obs.Tracer.start_span tracer ~tick:t0 ("gateway:" ^ route);
    let ((response : Response.t), _) as outcome = work () in
    W5_obs.Tracer.annotate tracer
      [ ("status",
         string_of_int (Response.status_code response.Response.status)) ];
    W5_obs.Tracer.end_span tracer ~tick:(Kernel.tick kernel);
    outcome
  end

(* A request that completes at submit (a page or an admission refusal)
   gets its span there, around its own work. *)
let completed platform ~route ~t0 render =
  let kernel = Platform.kernel platform in
  let r, t1 =
    request_span platform ~route ~t0 (fun () ->
        let r = render () in
        (r, Kernel.tick kernel))
  in
  Done (r, t1)

let submit_as platform ~viewer request =
  let kernel = Platform.kernel platform in
  let dns_route = dns_route_of platform request in
  let route = route_label request ~dns_route in
  let t0 = Kernel.tick kernel in
  let state =
    match route_request platform request ~viewer ~dns_route with
    | Page render -> completed platform ~route ~t0 render
    | Dispatch { app_id; version } -> (
        match spawn_app platform ~viewer ~app_id ?version request with
        | Error r -> completed platform ~route ~t0 (fun () -> r)
        | Ok proc -> In_flight proc)
  in
  { p_route = route; p_viewer = viewer; p_submit_tick = t0; p_state = state }

let submit platform request =
  submit_as platform ~viewer:(viewer_of platform request) request

let in_flight pending =
  match pending.p_state with
  | In_flight proc -> Proc.is_alive proc
  | Done _ -> false

(* Request telemetry: counter, latency histogram, SLO ledger. Route
   labels are a closed set (see [route_label]); [t0]/[t1] bound the
   request on the logical clock. *)
let record_request platform ~route ~t0 ~t1 response =
  let metrics = W5_os.Kernel.metrics (Platform.kernel platform) in
  let status = string_of_int (Response.status_code response.Response.status) in
  W5_obs.Metrics.inc
    (W5_obs.Metrics.counter metrics "w5_gateway_requests_total"
       ~help:"HTTP requests by route and status")
    ~labels:[ ("route", route); ("status", status) ];
  W5_obs.Metrics.observe
    (W5_obs.Perf.latency metrics "w5_gateway_request_ticks"
       ~help:"Logical ticks consumed per request, by route")
    ~labels:[ ("route", route) ]
    (t1 - t0);
  W5_obs.Health.Slo.observe (slo_of platform) ~route ~tick:t1
    ~status:(Response.status_code response.Response.status)

let conclude platform pending =
  let kernel = Platform.kernel platform in
  let response, t1 =
    match pending.p_state with
    | Done (r, t) -> (r, t)
    | In_flight proc ->
        request_span platform ~route:pending.p_route ~t0:pending.p_submit_tick
          (fun () ->
            (* normally the scheduler already drove it to completion; a
               conclude without a drain runs it now, inside the span *)
            Kernel.run_proc kernel proc;
            let t1 =
              Option.value proc.Proc.finished_tick ~default:(Kernel.tick kernel)
            in
            (conclude_app platform ~viewer:pending.p_viewer proc, t1))
  in
  record_request platform ~route:pending.p_route ~t0:pending.p_submit_tick ~t1
    response;
  response

let handler platform request = conclude platform (submit platform request)
