(* End-to-end scenarios through the HTTP front-end: the experiment
   rows E1/E2 (boilerplate privacy + declassifiers) of DESIGN.md. *)

open W5_difc
open W5_http
open W5_platform

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

let setup () =
  let platform = Platform.create () in
  let dev = Principal.make Principal.Developer "sdev" in
  (match W5_apps.Social_app.publish platform ~dev with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "publish failed: %s" e);
  let signup user =
    match Platform.signup platform ~user ~password:(user ^ "-pw") with
    | Ok account -> account
    | Error e -> Alcotest.failf "signup %s failed: %s" user e
  in
  let alice = signup "alice" in
  let bob = signup "bob" in
  let charlie = signup "charlie" in
  (platform, alice, bob, charlie)

let login_client platform user =
  let client = Client.make ~name:user (Gateway.handler platform) in
  let response =
    Client.post client "/login"
      ~form:[ ("user", user); ("pass", user ^ "-pw") ]
  in
  check bool_c (user ^ " login ok") true (Response.is_success response);
  client

let app_id = "sdev/social"

let enable_and_delegate platform user =
  (match Platform.enable_app platform ~user ~app:app_id with
  | Ok () -> ()
  | Error e -> Alcotest.failf "enable failed: %s" e);
  let account = Platform.account_exn platform user in
  Policy.delegate_write account.Account.policy app_id

let test_owner_sees_own_profile () =
  let platform, _alice, _bob, _charlie = setup () in
  enable_and_delegate platform "alice";
  let alice = login_client platform "alice" in
  let response = Client.get alice ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "status" 200 (Response.status_code response.Response.status);
  check bool_c "profile shown" true (Client.saw alice "alice")

let test_friend_declassifier_allows_friend () =
  let platform, alice_acct, _bob, _charlie = setup () in
  enable_and_delegate platform "alice";
  enable_and_delegate platform "bob";
  enable_and_delegate platform "charlie";
  (* Alice marks a recognizable secret and befriends Bob. *)
  let alice = login_client platform "alice" in
  let r =
    Client.post alice ("/app/" ^ app_id)
      ~form:
        [ ("action", "set_profile"); ("field", "music"); ("value", "SECRET-JAZZ") ]
  in
  check int_c "set_profile" 200 (Response.status_code r.Response.status);
  let r =
    Client.post alice ("/app/" ^ app_id)
      ~form:[ ("action", "add_friend"); ("friend", "bob") ]
  in
  check int_c "add_friend" 200 (Response.status_code r.Response.status);
  ignore
    (Declassifier.install_and_authorize platform ~account:alice_acct
       ~name:"friends" Declassifier.friends_only);
  (* Bob (a friend) sees the page; Charlie does not; anonymous does not. *)
  let bob = login_client platform "bob" in
  let r = Client.get bob ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "bob status" 200 (Response.status_code r.Response.status);
  check bool_c "bob sees secret" true (Client.saw bob "SECRET-JAZZ");
  let charlie = login_client platform "charlie" in
  let r = Client.get charlie ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "charlie status" 403 (Response.status_code r.Response.status);
  check bool_c "charlie blind" false (Client.saw charlie "SECRET-JAZZ");
  let anon = Client.make (Gateway.handler platform) in
  let r = Client.get anon ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "anon status" 403 (Response.status_code r.Response.status);
  check bool_c "anon blind" false (Client.saw anon "SECRET-JAZZ")

let test_boilerplate_blocks_without_declassifier () =
  let platform, _alice, _bob, _charlie = setup () in
  enable_and_delegate platform "alice";
  enable_and_delegate platform "bob";
  let alice = login_client platform "alice" in
  let _ =
    Client.post alice ("/app/" ^ app_id)
      ~form:[ ("action", "add_friend"); ("friend", "bob") ]
  in
  (* No declassifier installed: even the friend is refused. *)
  let bob = login_client platform "bob" in
  let r = Client.get bob ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "bob refused" 403 (Response.status_code r.Response.status)

let suite =
  [
    Alcotest.test_case "owner sees own profile" `Quick
      test_owner_sees_own_profile;
    Alcotest.test_case "friends-only declassifier" `Quick
      test_friend_declassifier_allows_friend;
    Alcotest.test_case "boilerplate blocks non-owner" `Quick
      test_boilerplate_blocks_without_declassifier;
  ]

(* ---- signup + invitation flow over HTTP ---- *)

let test_signup_over_http () =
  let platform, _, _, _ = setup () in
  let client = Client.make ~name:"newbie" (Gateway.handler platform) in
  let r =
    Client.post client "/signup" ~form:[ ("user", "newbie"); ("pass", "pw") ]
  in
  check int_c "signup" 200 (Response.status_code r.Response.status);
  check bool_c "session cookie set" true
    (List.mem_assoc Session.cookie_name (Client.cookies client));
  (* duplicate signup rejected *)
  let other = Client.make (Gateway.handler platform) in
  let r = Client.post other "/signup" ~form:[ ("user", "newbie"); ("pass", "x") ] in
  check int_c "duplicate" 400 (Response.status_code r.Response.status)

let test_invitation_flow () =
  let platform, _, _, _ = setup () in
  let bob = login_client platform "bob" in
  (* not yet enabled: the gateway shows the invitation, not the app *)
  let r = Client.get bob ("/app/" ^ app_id) ~params:[ ("user", "bob") ] in
  check int_c "prompt" 200 (Response.status_code r.Response.status);
  check bool_c "invited" true (Client.saw bob "accept the invitation");
  (* one click *)
  let r = Client.post bob "/enable" ~form:[ ("app", app_id) ] in
  check int_c "enabled" 200 (Response.status_code r.Response.status);
  let account = Platform.account_exn platform "bob" in
  Policy.delegate_write account.Account.policy app_id;
  let r = Client.get bob ("/app/" ^ app_id) ~params:[ ("user", "bob") ] in
  check bool_c "app now runs" true (Client.saw bob "bob's profile" || Client.saw bob "friends");
  ignore r;
  (* install counter ticked exactly once *)
  check int_c "installs" 1 (App_registry.installs (Platform.registry platform) app_id)

(* ---- version pinning (E11) ---- *)

let test_version_pinning () =
  let platform, _, _, _ = setup () in
  let dev = Principal.make Principal.Developer "vdev" in
  let handler_v tag ctx (_ : App_registry.env) =
    ignore (W5_os.Syscall.respond ctx ("version-" ^ tag))
  in
  ignore
    (App_registry.publish (Platform.registry platform) ~dev ~name:"tool"
       ~version:"1.0" (handler_v "one"));
  ignore
    (App_registry.publish (Platform.registry platform) ~dev ~name:"tool"
       ~version:"2.0" (handler_v "two"));
  (match Platform.enable_app platform ~user:"alice" ~app:"vdev/tool" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let alice = login_client platform "alice" in
  (* latest by default *)
  let _ = Client.get alice "/app/vdev/tool" in
  check bool_c "latest" true (Client.saw alice "version-two");
  (* explicit query parameter *)
  let _ = Client.get alice "/app/vdev/tool" ~params:[ ("version", "1.0") ] in
  check bool_c "explicit" true (Client.saw alice "version-one");
  (* sticky pin via settings *)
  let _ =
    Client.get alice "/settings"
      ~params:[ ("action", "pin"); ("app", "vdev/tool"); ("version", "1.0") ]
  in
  let r = Client.get alice "/app/vdev/tool" in
  check string_c "pinned" "version-one" r.Response.body

(* ---- client-side script filtering (E9) ---- *)

let test_javascript_stripped_by_default () =
  let platform, _, _, _ = setup () in
  let dev = Principal.make Principal.Developer "jsdev" in
  let handler ctx (_ : App_registry.env) =
    ignore
      (W5_os.Syscall.respond ctx
         "<p>fine</p><script>steal(document.cookie)</script>")
  in
  ignore
    (App_registry.publish (Platform.registry platform) ~dev ~name:"shiny"
       ~version:"1.0" handler);
  (match Platform.enable_app platform ~user:"alice" ~app:"jsdev/shiny" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let alice = login_client platform "alice" in
  let r = Client.get alice "/app/jsdev/shiny" in
  check int_c "served" 200 (Response.status_code r.Response.status);
  check bool_c "script stripped" false (Client.saw alice "<script>");
  check bool_c "content kept" true (Client.saw alice "<p>fine</p>");
  (* opting in keeps the script (MashupOS-style relaxation) *)
  let _ =
    Client.get alice "/settings" ~params:[ ("action", "allow_js"); ("value", "on") ]
  in
  let r = Client.get alice "/app/jsdev/shiny" in
  check bool_c "script kept after opt-in" true
    (let body = r.Response.body in
     String.length body >= 8
     &&
     let rec scan i =
       i + 8 <= String.length body
       && (String.sub body i 8 = "<script>" || scan (i + 1))
     in
     scan 0)

(* ---- read protection end to end (E4) ---- *)

(* One request through both faces of the gateway: [Gateway.handler]
   (through the client) and [submit] then [conclude], with the
   client's session cookie. Returns both response bodies. *)
let through_both platform client path =
  let via_handler = (Client.get client path).Response.body in
  let headers =
    Headers.set Headers.empty "Cookie"
      (String.concat "; "
         (List.map (fun (k, v) -> k ^ "=" ^ v) (Client.cookies client)))
  in
  let request =
    Request.make ~headers ~client:(Client.name client) Request.GET path
  in
  let via_submit =
    (Gateway.conclude platform (Gateway.submit platform request)).Response.body
  in
  [ via_handler; via_submit ]

let check_both what prefix bodies =
  List.iter
    (fun body -> check bool_c what true (String.starts_with ~prefix body))
    bodies

let test_read_protection_end_to_end () =
  let platform, alice_acct, _, charlie_acct = setup () in
  enable_and_delegate platform "alice";
  let tag = Platform.enable_read_protection platform alice_acct in
  ignore tag;
  let dev = Principal.make Principal.Developer "snoopdev" in
  (* reads the profile of [?user=] (default alice) *)
  let handler ctx (env : App_registry.env) =
    let user =
      Option.value ~default:"alice"
        (Request.param env.App_registry.request "user")
    in
    match W5_os.Syscall.read_file_taint ctx (Platform.user_file user "profile") with
    | Ok data -> ignore (W5_os.Syscall.respond ctx ("GOT:" ^ data))
    | Error e ->
        ignore (W5_os.Syscall.respond ctx ("DENIED:" ^ W5_os.Os_error.to_string e))
  in
  ignore
    (App_registry.publish (Platform.registry platform) ~dev ~name:"snoop"
       ~version:"1.0" handler);
  List.iter
    (fun user ->
      match Platform.enable_app platform ~user ~app:"snoopdev/snoop" with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ "alice"; "bob"; "charlie" ];
  (* without a read grant the app cannot even open the file *)
  let bob = login_client platform "bob" in
  let _ = Client.get bob "/app/snoopdev/snoop" in
  check bool_c "read denied" true (Client.saw bob "DENIED:");
  (* alice grants the app read: it reads, but export to bob is still
     impossible *)
  Policy.grant_read alice_acct.Account.policy "snoopdev/snoop";
  let bob2 = login_client platform "bob" in
  let r = Client.get bob2 "/app/snoopdev/snoop" in
  check int_c "export still refused" 403 (Response.status_code r.Response.status);
  (* alice, with the grant, gets her own data back *)
  Policy.grant_read alice_acct.Account.policy "snoopdev/snoop";
  let alice = login_client platform "alice" in
  let _ = Client.get alice "/app/snoopdev/snoop" in
  check bool_c "owner reads" true (Client.saw alice "GOT:");
  check_both "granted: both paths read" "GOT:"
    (through_both platform alice "/app/snoopdev/snoop");
  (* revoking takes effect on the very next request *)
  Policy.revoke_read alice_acct.Account.policy "snoopdev/snoop";
  check_both "revoked: both paths denied" "DENIED:"
    (through_both platform alice "/app/snoopdev/snoop");
  (* a second owner who turns protection on after the platform has
     served requests is consulted on the next dispatch *)
  check bool_c "platform has served requests" true
    (Platform.requests_served platform > 0);
  let charlie = login_client platform "charlie" in
  let own = "/app/snoopdev/snoop?user=charlie" in
  check_both "unprotected: both paths read" "GOT:"
    (through_both platform charlie own);
  ignore (Platform.enable_read_protection platform charlie_acct);
  check_both "protected, no grant: both paths denied" "DENIED:"
    (through_both platform charlie own);
  Policy.grant_read charlie_acct.Account.policy "snoopdev/snoop";
  check_both "protected and granted: both paths read" "GOT:"
    (through_both platform charlie own);
  (* alice's revocation still stands beside charlie's grant *)
  check_both "alice still revoked" "DENIED:"
    (through_both platform alice "/app/snoopdev/snoop")

(* ---- fork + one-click migration (E11) ---- *)

let test_fork_and_migrate () =
  let platform, _, _, _ = setup () in
  enable_and_delegate platform "alice";
  let alice = login_client platform "alice" in
  let _ =
    Client.post alice ("/app/" ^ app_id)
      ~form:[ ("action", "set_profile"); ("field", "motto"); ("value", "carpe-diem") ]
  in
  (* an independent developer forks the open-source social app *)
  let forker = Principal.make Principal.Developer "indie" in
  (match
     App_registry.fork (Platform.registry platform) ~new_dev:forker
       ~from_id:app_id ~name:"social-plus" ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* alice switches by checking a box; her data is already there *)
  (match Platform.enable_app platform ~user:"alice" ~app:"indie/social-plus" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let r =
    Client.get alice "/app/indie/social-plus" ~params:[ ("user", "alice") ]
  in
  check int_c "fork serves" 200 (Response.status_code r.Response.status);
  check bool_c "same data, zero re-upload" true (Client.saw alice "carpe-diem")

(* ---- developer debugging via the audit log (§3.5) ---- *)

let test_audit_route_shows_denials () =
  let platform, _, _, _ = setup () in
  enable_and_delegate platform "bob";
  let dev = Principal.make Principal.Developer "buggydev" in
  let handler ctx (_ : App_registry.env) =
    (* bug: tries to write somewhere it cannot *)
    ignore
      (W5_os.Syscall.write_file ctx "/users/alice/profile" ~data:"oops");
    ignore (W5_os.Syscall.respond ctx "done")
  in
  ignore
    (App_registry.publish (Platform.registry platform) ~dev ~name:"buggy"
       ~version:"1.0" handler);
  (match Platform.enable_app platform ~user:"bob" ~app:"buggydev/buggy" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let bob = login_client platform "bob" in
  let _ = Client.get bob "/app/buggydev/buggy" in
  let r = Client.get bob "/audit" in
  check int_c "audit served" 200 (Response.status_code r.Response.status);
  check bool_c "denial listed" true (Client.saw bob "fs.write");
  (* the audit page never carries user data *)
  check bool_c "no data in audit" false (Client.saw bob "oops")

let test_home_and_404 () =
  let platform, _, _, _ = setup () in
  let client = Client.make (Gateway.handler platform) in
  let r = Client.get client "/" in
  check int_c "home" 200 (Response.status_code r.Response.status);
  check bool_c "lists app" true (Client.saw client app_id);
  let r = Client.get client "/no/such/route" in
  check int_c "404" 404 (Response.status_code r.Response.status);
  let r = Client.get client "/app/ghost/app" in
  check int_c "ghost app 404" 404 (Response.status_code r.Response.status)

let suite =
  suite
  @ [
      Alcotest.test_case "signup over http" `Quick test_signup_over_http;
      Alcotest.test_case "invitation flow" `Quick test_invitation_flow;
      Alcotest.test_case "version pinning" `Quick test_version_pinning;
      Alcotest.test_case "javascript stripped by default" `Quick
        test_javascript_stripped_by_default;
      Alcotest.test_case "read protection end to end" `Quick
        test_read_protection_end_to_end;
      Alcotest.test_case "fork and migrate" `Quick test_fork_and_migrate;
      Alcotest.test_case "audit route shows denials" `Quick
        test_audit_route_shows_denials;
      Alcotest.test_case "home and 404" `Quick test_home_and_404;
    ]

(* ---- virtual hosts (DNS front-end, §2) ---- *)

let test_dns_virtual_hosts () =
  let platform, _, _, _ = setup () in
  enable_and_delegate platform "alice";
  let dns = Platform.enable_dns platform ~zone:"w5.example" in
  let host = Dns.app_host dns ~app_id:app_id in
  let alice = login_client platform "alice" in
  (* the same app, reached through its vanity hostname *)
  let r =
    Client.get alice "/"
      ~params:[ ("user", "alice") ]
  in
  ignore r;
  (* Client has no host support; craft the request directly *)
  let account = Platform.account_exn platform "alice" in
  ignore account;
  let request =
    Request.make
      ~headers:(Headers.set Headers.empty "Host" host)
      Request.GET "/?user=alice"
  in
  let response = Gateway.handler platform request in
  (* anonymous via vhost: the profile is refused (alice's tag), which
     proves the app ran *)
  check int_c "vhost routed to app" 403
    (Response.status_code response.Response.status);
  (* an unknown host falls through to the path router *)
  let request =
    Request.make
      ~headers:(Headers.set Headers.empty "Host" "unknown.w5.example")
      Request.GET "/"
  in
  let response = Gateway.handler platform request in
  check int_c "unknown host -> front end" 200
    (Response.status_code response.Response.status)

let suite =
  suite
  @ [ Alcotest.test_case "dns virtual hosts" `Quick test_dns_virtual_hosts ]

(* ---- session lifecycle and error paths over HTTP ---- *)

let test_logout_and_bad_login () =
  let platform, _, _, _ = setup () in
  enable_and_delegate platform "alice";
  let alice = login_client platform "alice" in
  let r = Client.get alice ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "logged in works" 200 (Response.status_code r.Response.status);
  let r = Client.get alice "/logout" in
  check int_c "logout" 200 (Response.status_code r.Response.status);
  (* the session is gone: now anonymous, alice's own page is refused *)
  let r = Client.get alice ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "post-logout anonymous" 403 (Response.status_code r.Response.status);
  (* bad credentials *)
  let c = Client.make (Gateway.handler platform) in
  let r = Client.post c "/login" ~form:[ ("user", "alice"); ("pass", "wrong") ] in
  check int_c "bad login" 401 (Response.status_code r.Response.status);
  let r = Client.post c "/login" ~form:[ ("user", "alice") ] in
  check int_c "missing field" 400 (Response.status_code r.Response.status)

let test_module_failure_surfaces () =
  (* an app whose chosen module does not exist reports the failure but
     does not crash the platform *)
  let platform, alice_acct, _, _ = setup () in
  let dev = Principal.make Principal.Developer "pdev" in
  (match W5_apps.Photo_app.publish platform ~dev with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Platform.enable_app platform ~user:"alice" ~app:"pdev/photos" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Policy.delegate_write alice_acct.Account.policy "pdev/photos";
  Policy.choose_module alice_acct.Account.policy ~slot:"photo.crop"
    ~module_id:"ghost/crop";
  let alice = login_client platform "alice" in
  ignore
    (Client.post alice "/app/pdev/photos"
       ~form:[ ("action", "upload"); ("id", "p"); ("data", "DATA") ]);
  let r =
    Client.get alice "/app/pdev/photos"
      ~params:[ ("action", "view"); ("user", "alice"); ("id", "p") ]
  in
  check int_c "still a page" 200 (Response.status_code r.Response.status);
  check bool_c "error explained" true (Client.saw alice "crop module failed");
  (* and the platform still serves the next request *)
  let r = Client.get alice "/app/pdev/photos" ~params:[ ("action", "list") ] in
  check int_c "alive" 200 (Response.status_code r.Response.status)

let test_enable_unknown_app_rejected () =
  let platform, _, _, _ = setup () in
  let alice = login_client platform "alice" in
  let r = Client.post alice "/enable" ~form:[ ("app", "ghost/app") ] in
  check int_c "rejected" 400 (Response.status_code r.Response.status);
  let r = Client.post alice "/enable" ~form:[] in
  check int_c "missing param" 400 (Response.status_code r.Response.status)

let suite =
  suite
  @ [
      Alcotest.test_case "logout and bad login" `Quick test_logout_and_bad_login;
      Alcotest.test_case "module failure surfaces" `Quick
        test_module_failure_surfaces;
      Alcotest.test_case "enable unknown app rejected" `Quick
        test_enable_unknown_app_rejected;
    ]

let test_audit_filter_param () =
  let platform, _, _, _ = setup () in
  enable_and_delegate platform "bob";
  (* produce two distinct denial kinds *)
  let dev = Principal.make Principal.Developer "fdev" in
  let handler ctx (_ : App_registry.env) =
    ignore (W5_os.Syscall.write_file ctx "/users/alice/profile" ~data:"x");
    ignore (W5_os.Syscall.read_file ctx "/users/alice/profile");
    ignore (W5_os.Syscall.respond ctx "ok")
  in
  ignore
    (App_registry.publish (Platform.registry platform) ~dev ~name:"noisy"
       ~version:"1.0" handler);
  (match Platform.enable_app platform ~user:"bob" ~app:"fdev/noisy" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let bob = login_client platform "bob" in
  ignore (Client.get bob "/app/fdev/noisy");
  let c = Client.make (Gateway.handler platform) in
  let r = Client.get c "/audit" ~params:[ ("filter", "fs.write") ] in
  check int_c "filtered" 200 (Response.status_code r.Response.status);
  check bool_c "writes shown" true (Client.saw c "fs.write");
  check bool_c "reads filtered out" false (Client.saw c "fs.read")

let suite =
  suite @ [ Alcotest.test_case "audit filter param" `Quick test_audit_filter_param ]

let test_me_dashboard () =
  let platform, alice_acct, _, _ = setup () in
  enable_and_delegate platform "alice";
  Policy.choose_module alice_acct.Account.policy ~slot:"photo.crop"
    ~module_id:"devA/crop";
  let alice = login_client platform "alice" in
  let r = Client.get alice "/me" in
  check int_c "dashboard" 200 (Response.status_code r.Response.status);
  check bool_c "shows enabled app" true (Client.saw alice app_id);
  check bool_c "shows module choice" true (Client.saw alice "devA/crop");
  check bool_c "shows js default" true (Client.saw alice "stripped");
  (* anonymous has no dashboard *)
  let anon = Client.make (Gateway.handler platform) in
  let r = Client.get anon "/me" in
  check int_c "anon" 401 (Response.status_code r.Response.status)

let test_session_expiry_platform () =
  let platform, _, _, _ = setup () in
  enable_and_delegate platform "alice";
  let alice = login_client platform "alice" in
  let r = Client.get alice ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "fresh session works" 200 (Response.status_code r.Response.status);
  (* time passes (the request above advanced the kernel clock);
     expiring with max_age 0 drops everything older than "now" *)
  ignore (Platform.expire_sessions platform ~max_age:0);
  let r = Client.get alice ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "expired session is anonymous" 403
    (Response.status_code r.Response.status)

let suite =
  suite
  @ [
      Alcotest.test_case "me dashboard" `Quick test_me_dashboard;
      Alcotest.test_case "session expiry via platform" `Quick
        test_session_expiry_platform;
    ]

(* ---- read protection + declassifier interplay ---- *)

let test_read_protected_profile_via_declassifier () =
  let platform, alice_acct, _, _ = setup () in
  enable_and_delegate platform "alice";
  enable_and_delegate platform "bob";
  enable_and_delegate platform "charlie";
  ignore (Platform.enable_read_protection platform alice_acct);
  (* with read protection on, even alice's own app sessions need the
     read grant before the app can touch her data at all *)
  let alice = login_client platform "alice" in
  let r =
    Client.post alice ("/app/" ^ app_id)
      ~form:[ ("action", "set_profile"); ("field", "blood_type"); ("value", "AB-NEG") ]
  in
  ignore r;
  check bool_c "app cannot even serve the owner without the grant" false
    (Client.saw alice "profile updated: blood_type");
  Policy.grant_read alice_acct.Account.policy app_id;
  ignore
    (Client.post alice ("/app/" ^ app_id)
       ~form:[ ("action", "set_profile"); ("field", "blood_type"); ("value", "AB-NEG") ]);
  ignore
    (Client.post alice ("/app/" ^ app_id)
       ~form:[ ("action", "add_friend"); ("friend", "bob") ]);
  (* the data is readable by the granted app, but bob still cannot
     receive it: no declassifier yet *)
  let bob = login_client platform "bob" in
  let r = Client.get bob ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "readable but not exportable" 403
    (Response.status_code r.Response.status);
  (* alice installs her declassifier: the gate clears both her plain
     and restricted tags for friends *)
  ignore
    (Declassifier.install_and_authorize platform ~account:alice_acct
       ~name:"friends" Declassifier.friends_only);
  let bob2 = login_client platform "bob" in
  let r = Client.get bob2 ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "friend view ok" 200 (Response.status_code r.Response.status);
  check bool_c "content crossed" true (Client.saw bob2 "AB-NEG");
  (* charlie still blocked *)
  let charlie = login_client platform "charlie" in
  let r = Client.get charlie ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "stranger blocked" 403 (Response.status_code r.Response.status)

let test_enforcement_toggle () =
  let platform, _, _, _ = setup () in
  let kernel = Platform.kernel platform in
  check bool_c "on by default" true (W5_os.Kernel.enforcing kernel);
  W5_os.Kernel.set_enforcing kernel false;
  check bool_c "off" false (W5_os.Kernel.enforcing kernel);
  W5_os.Kernel.set_enforcing kernel true;
  check bool_c "on again" true (W5_os.Kernel.enforcing kernel)

let suite =
  suite
  @ [
      Alcotest.test_case "read-protected profile via declassifier" `Quick
        test_read_protected_profile_via_declassifier;
      Alcotest.test_case "enforcement toggle" `Quick test_enforcement_toggle;
    ]

(* ---- nested module invocation ---- *)

let test_nested_modules () =
  let platform, alice_acct, _, _ = setup () in
  let dev = Principal.make Principal.Developer "nest" in
  let leaf ctx (env : App_registry.env) =
    let x =
      W5_http.Request.param_or env.App_registry.request "x" ~default:"?"
    in
    ignore (W5_os.Syscall.respond ctx ("leaf(" ^ x ^ ")"))
  in
  let middle ctx (env : App_registry.env) =
    match
      env.App_registry.run_module ctx ~module_id:"nest/leaf"
        (W5_http.Request.make W5_http.Request.GET "/?x=42")
    with
    | Ok inner -> ignore (W5_os.Syscall.respond ctx ("middle[" ^ inner ^ "]"))
    | Error e -> ignore (W5_os.Syscall.respond ctx ("err:" ^ e))
  in
  let top ctx (env : App_registry.env) =
    match
      env.App_registry.run_module ctx ~module_id:"nest/middle"
        (W5_http.Request.make W5_http.Request.GET "/")
    with
    | Ok inner -> ignore (W5_os.Syscall.respond ctx ("top{" ^ inner ^ "}"))
    | Error e -> ignore (W5_os.Syscall.respond ctx ("err:" ^ e))
  in
  let publish name handler =
    match
      App_registry.publish (Platform.registry platform) ~dev ~name
        ~version:"1.0" handler
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail e
  in
  publish "leaf" leaf;
  publish "middle" middle;
  publish "top" top;
  (match Platform.enable_app platform ~user:"alice" ~app:"nest/top" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  ignore alice_acct;
  let alice = login_client platform "alice" in
  let r = Client.get alice "/app/nest/top" in
  check int_c "nested" 200 (Response.status_code r.Response.status);
  check string_c "composition" "top{middle[leaf(42)]}" r.Response.body

let test_unknown_version_404 () =
  let platform, _, _, _ = setup () in
  enable_and_delegate platform "alice";
  let alice = login_client platform "alice" in
  let r = Client.get alice ("/app/" ^ app_id) ~params:[ ("version", "9.9") ] in
  check int_c "unknown version" 404 (Response.status_code r.Response.status)

let suite =
  suite
  @ [
      Alcotest.test_case "nested modules" `Quick test_nested_modules;
      Alcotest.test_case "unknown version 404" `Quick test_unknown_version_404;
    ]

(* ---- vhost + rate limit together ---- *)

let test_vhost_respects_rate_limit () =
  let platform, _, _, _ = setup () in
  enable_and_delegate platform "alice";
  let dns = Platform.enable_dns platform ~zone:"w5.example" in
  let host = Dns.app_host dns ~app_id:app_id in
  Platform.set_rate_limit platform
    (Some (Rate_limit.create ~capacity:2 ~refill_per_tick:0 ()));
  let hit () =
    let request =
      Request.make
        ~headers:(Headers.set Headers.empty "Host" host)
        ~client:"vhost-client" Request.GET "/?user=alice"
    in
    Response.status_code (Gateway.handler platform request).Response.status
  in
  let statuses = List.init 4 (fun _ -> hit ()) in
  check int_c "throttled after capacity" 2
    (List.length (List.filter (( = ) 429) statuses))

let test_signup_then_me () =
  let platform, _, _, _ = setup () in
  let c = Client.make ~name:"fresh" (Gateway.handler platform) in
  ignore (Client.post c "/signup" ~form:[ ("user", "fresh"); ("pass", "pw") ]);
  (* the signup set a session cookie: /me works immediately *)
  let r = Client.get c "/me" in
  check int_c "dashboard right away" 200 (Response.status_code r.Response.status);
  check bool_c "own name" true (Client.saw c "fresh")

let suite =
  suite
  @ [
      Alcotest.test_case "vhost respects rate limit" `Quick
        test_vhost_respects_rate_limit;
      Alcotest.test_case "signup then me" `Quick test_signup_then_me;
    ]

(* ---- capstone: a full life, then a full move ----

   zoe uses the social app, photos and calendar on provider A,
   befriends ben (who can see her redacted week), then takes her whole
   account to provider B. On B — with the same apps published by the
   same developers — everything works immediately: her data, her
   friend list, her photos. Only her policies (which are platform
   state, not data) need re-declaring, exactly as the paper's
   account-linking story implies. *)

let test_capstone_full_move () =
  let make_provider () =
    let platform = Platform.create () in
    let dev = Principal.make Principal.Developer "core" in
    (match W5_apps.Social_app.publish platform ~dev with
    | Ok _ -> () | Error e -> Alcotest.fail e);
    (match W5_apps.Photo_app.publish platform ~dev with
    | Ok _ -> () | Error e -> Alcotest.fail e);
    (match W5_apps.Calendar_app.publish platform ~dev with
    | Ok _ -> () | Error e -> Alcotest.fail e);
    platform
  in
  let provider_a = make_provider () in
  let provider_b = make_provider () in
  let join platform user =
    let account =
      match Platform.signup platform ~user ~password:"pw" with
      | Ok a -> a
      | Error e -> Alcotest.fail e
    in
    List.iter
      (fun app ->
        (match Platform.enable_app platform ~user ~app with
        | Ok () -> () | Error e -> Alcotest.fail e);
        Policy.delegate_write account.Account.policy app)
      [ "core/social"; "core/photos"; "core/calendar" ];
    account
  in
  let zoe_a = join provider_a "zoe" in
  ignore (join provider_a "ben");
  let login platform user =
    let c = Client.make ~name:user (Gateway.handler platform) in
    ignore (Client.post c "/login" ~form:[ ("user", user); ("pass", "pw") ]);
    c
  in
  (* life on A *)
  let zc = login provider_a "zoe" in
  ignore
    (Client.post zc "/app/core/social"
       ~form:[ ("action", "set_profile"); ("field", "bio"); ("value", "SAILOR-BIO") ]);
  ignore
    (Client.post zc "/app/core/social"
       ~form:[ ("action", "add_friend"); ("friend", "ben") ]);
  ignore
    (Client.post zc "/app/core/photos"
       ~form:[ ("action", "upload"); ("id", "boat"); ("data", "BOATPIXELS") ]);
  ignore
    (Client.post zc "/app/core/calendar"
       ~form:
         [ ("action", "add"); ("id", "regatta"); ("title", "SECRET-REGATTA");
           ("day", "6"); ("start", "9"); ("len", "3") ]);
  ignore
    (Declassifier.install_and_authorize provider_a ~account:zoe_a
       ~name:"busyfree" (Declassifier.redacting Declassifier.friends_only));
  let bc = login provider_a "ben" in
  let r = Client.get bc "/app/core/calendar" ~params:[ ("action", "week"); ("user", "zoe") ] in
  check int_c "ben sees A-side week" 200 (Response.status_code r.Response.status);
  check bool_c "redacted on A" false (Client.saw bc "SECRET-REGATTA");
  (* the move *)
  let zoe_b = join provider_b "zoe" in
  ignore (join provider_b "ben");
  let moved =
    match
      W5_federation.Migrate.migrate_account ~from_platform:provider_a
        ~from_account:zoe_a ~to_platform:provider_b ~to_account:zoe_b ()
    with
    | Ok n -> n
    | Error e -> Alcotest.failf "migration failed: %s" (W5_os.Os_error.to_string e)
  in
  check bool_c "everything moved" true (moved >= 4);
  (* life on B, zero re-upload *)
  let zb = login provider_b "zoe" in
  let r = Client.get zb "/app/core/social" ~params:[ ("user", "zoe") ] in
  check int_c "profile on B" 200 (Response.status_code r.Response.status);
  check bool_c "bio survived" true (Client.saw zb "SAILOR-BIO");
  check bool_c "friends survived" true (Client.saw zb "ben");
  let r =
    Client.get zb "/app/core/photos"
      ~params:[ ("action", "view"); ("user", "zoe"); ("id", "boat") ]
  in
  check int_c "photo on B" 200 (Response.status_code r.Response.status);
  check bool_c "pixels survived" true (Client.saw zb "BOATPIXELS");
  (* policies are per-platform: ben is blocked on B until zoe
     re-authorizes a declassifier there *)
  let bb = login provider_b "ben" in
  let r = Client.get bb "/app/core/calendar" ~params:[ ("action", "week"); ("user", "zoe") ] in
  check int_c "no declassifier on B yet" 403 (Response.status_code r.Response.status);
  ignore
    (Declassifier.install_and_authorize provider_b ~account:zoe_b
       ~name:"busyfree" (Declassifier.redacting Declassifier.friends_only));
  let bb2 = login provider_b "ben" in
  let r = Client.get bb2 "/app/core/calendar" ~params:[ ("action", "week"); ("user", "zoe") ] in
  check int_c "redeclared: ben sees B-side week" 200
    (Response.status_code r.Response.status);
  check bool_c "slot visible on B" true (Client.saw bb2 "09:00-12:00");
  check bool_c "still redacted on B" false (Client.saw bb2 "SECRET-REGATTA")

let suite =
  suite
  @ [
      Alcotest.test_case "capstone: full life, full move" `Quick
        test_capstone_full_move;
    ]

let test_self_recursive_module_contained () =
  let platform, _, _, _ = setup () in
  let dev = Principal.make Principal.Developer "loopdev" in
  let handler ctx (env : App_registry.env) =
    (* a module that invokes itself forever *)
    match
      env.App_registry.run_module ctx ~module_id:"loopdev/ouroboros"
        (W5_http.Request.make W5_http.Request.GET "/")
    with
    | Ok body -> ignore (W5_os.Syscall.respond ctx body)
    | Error e -> ignore (W5_os.Syscall.respond ctx e)
  in
  (match
     App_registry.publish (Platform.registry platform) ~dev ~name:"ouroboros"
       ~version:"1.0" handler
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match Platform.enable_app platform ~user:"alice" ~app:"loopdev/ouroboros" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let alice = login_client platform "alice" in
  let r = Client.get alice "/app/loopdev/ouroboros" in
  (* killed by quota, not by a stack overflow crash *)
  check int_c "contained" 429 (Response.status_code r.Response.status);
  (* and the platform is still fine *)
  enable_and_delegate platform "alice";
  let alice2 = login_client platform "alice" in
  let r = Client.get alice2 ("/app/" ^ app_id) ~params:[ ("user", "alice") ] in
  check int_c "still serving" 200 (Response.status_code r.Response.status)

let suite =
  suite
  @ [
      Alcotest.test_case "self-recursive module contained" `Quick
        test_self_recursive_module_contained;
    ]

(* ---- one request path ---- *)

(* [Gateway.handler] is [submit] then [conclude]. The same scripted
   requests — a login page, a friend's view allowed through the owner's
   gate, a stranger's view refused by it, the home page — sent through
   the handler on one platform and through submit, a run of the kernel
   queue and conclude on a twin built from the same seed, must give the
   same responses, audit log and metrics. *)
let test_one_request_path () =
  let build () =
    let society =
      W5_workload.Populate.build ~seed:5 ~users:4 ~friends_per_user:1
        ~photos_per_user:0 ~blog_posts_per_user:0 ()
    in
    (society.W5_workload.Populate.platform, society.W5_workload.Populate.users)
  in
  let scheduled platform request =
    let pending = Gateway.submit platform request in
    W5_os.Kernel.run (Platform.kernel platform);
    Gateway.conclude platform pending
  in
  let script (platform, users) serve =
    let owner = List.hd users in
    let friends =
      match
        Platform.read_user_record platform
          (Platform.account_exn platform owner)
          ~file:"friends"
      with
      | Ok r -> W5_store.Record.get_list r "friends"
      | Error e -> Alcotest.fail (W5_os.Os_error.to_string e)
    in
    let stranger =
      match
        List.find_opt (fun u -> u <> owner && not (List.mem u friends)) users
      with
      | Some u -> u
      | None -> Alcotest.fail "seed 5 must leave the owner a stranger"
    in
    let client user =
      let c = Client.make ~name:user serve in
      let r =
        Client.post c "/login" ~form:[ ("user", user); ("pass", user ^ "-pw") ]
      in
      (c, r)
    in
    let view c = Client.get c "/app/core/social" ~params:[ ("user", owner) ] in
    let f, login = client (List.hd friends) in
    let s, _ = client stranger in
    List.map
      (fun (r : Response.t) ->
        ( Response.status_code r.Response.status,
          Test_noninterference.strip_tag_ids r.Response.body ))
      [ login; view f; view s; Client.get s "/" ]
  in
  let ((a, _) as twin_a) = build () and ((b, _) as twin_b) = build () in
  let via_handler = script twin_a (Gateway.handler a) in
  let via_submit = script twin_b (scheduled b) in
  check (Alcotest.list int_c) "login, allowed, refused, page"
    [ 200; 200; 403; 200 ] (List.map fst via_handler);
  check
    (Alcotest.list (Alcotest.pair int_c string_c))
    "same responses" via_handler via_submit;
  check string_c "same audit log and store"
    (W5_workload.Soak.fingerprint a)
    (W5_workload.Soak.fingerprint b);
  let metrics p =
    W5_obs.Exposition.prometheus (W5_os.Kernel.metrics (Platform.kernel p))
  in
  check string_c "same metrics" (metrics a) (metrics b)

(* A provider page renders inside its request's span: with tracing on,
   the syscalls /group_create makes nest under one root. *)
let test_page_is_one_trace () =
  let platform, _, _, _ = setup () in
  let client = login_client platform "alice" in
  let tracer = W5_os.Kernel.tracer (Platform.kernel platform) in
  W5_obs.Tracer.clear tracer;
  W5_obs.Tracer.set_enabled tracer true;
  let r = Client.post client "/group_create" ~form:[ ("name", "hikers") ] in
  W5_obs.Tracer.set_enabled tracer false;
  check int_c "created" 200 (Response.status_code r.Response.status);
  match W5_obs.Tracer.traces tracer with
  | [ root ] ->
      check string_c "root" "gateway:group_create" root.W5_obs.Span.span_name;
      check
        (Alcotest.list string_c)
        "the page's syscalls nest under it"
        [ "sys.fs.mkdir"; "sys.fs.mkdir" ]
        (List.map
           (fun (s : W5_obs.Span.t) -> s.W5_obs.Span.span_name)
           root.W5_obs.Span.children)
  | traces ->
      Alcotest.failf "expected one trace, got %d" (List.length traces)

let suite =
  suite
  @ [
      Alcotest.test_case "handler is submit then conclude" `Quick
        test_one_request_path;
      Alcotest.test_case "a page is one trace" `Quick test_page_is_one_trace;
    ]
