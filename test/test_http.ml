(* Tests for the HTTP front-end model: URIs, headers/cookies,
   requests/responses, sessions, the simulated client, and the
   script-stripping perimeter filter (experiment E9). *)

open W5_http

let check = Alcotest.check
let bool_c = Alcotest.bool
let int_c = Alcotest.int
let string_c = Alcotest.string

(* ---- uri ---- *)

let test_uri_parse () =
  let u = Uri.parse "/a/b%20c/d?x=1&y=hello+world&flag" in
  check string_c "path" "/a/b c/d" u.Uri.path;
  check (Alcotest.list string_c) "segments" [ "a"; "b c"; "d" ] u.Uri.segments;
  check (Alcotest.option string_c) "x" (Some "1") (Uri.query_get u "x");
  check (Alcotest.option string_c) "decoded" (Some "hello world") (Uri.query_get u "y");
  check (Alcotest.option string_c) "valueless" (Some "") (Uri.query_get u "flag")

let test_uri_normalization () =
  let u = Uri.parse "//a///b/./c" in
  check string_c "collapsed" "/a/b/c" u.Uri.path;
  check string_c "root" "/" (Uri.parse "").Uri.path

let test_uri_with_query () =
  check string_c "render" "/p?a=1&b=x%20y" (Uri.with_query "/p" [ ("a", "1"); ("b", "x y") ]);
  check string_c "no params" "/p" (Uri.with_query "/p" [])

let test_uri_decode_edge_cases () =
  check string_c "literal percent kept" "100%" (Uri.percent_decode "100%");
  check string_c "truncated escape" "%2" (Uri.percent_decode "%2");
  (* '+' is only a space in form-encoded query strings, not in paths *)
  check string_c "plus survives in paths" "a+b" (Uri.percent_decode "a+b");
  check string_c "encoded space still decodes" "a b" (Uri.percent_decode "a%20b")

let test_uri_plus_path_vs_query () =
  let u = Uri.parse "/file/a+b?q=c+d&r=e%2Bf" in
  check string_c "path keeps plus" "/file/a+b" u.Uri.path;
  check (Alcotest.option string_c) "query plus is space" (Some "c d")
    (Uri.query_get u "q");
  check (Alcotest.option string_c) "encoded plus survives" (Some "e+f")
    (Uri.query_get u "r")

let prop_uri_query_roundtrip =
  let arb =
    QCheck.make
      QCheck.Gen.(
        list_size (0 -- 5)
          (pair
             (string_size (1 -- 8) ~gen:(map Char.chr (97 -- 122)))
             (string_size (0 -- 8) ~gen:(map Char.chr (32 -- 126)))))
  in
  QCheck.Test.make ~name:"query params roundtrip through a URI" ~count:300 arb
    (fun params ->
      (* keys may repeat; compare first bindings only *)
      let u = Uri.parse (Uri.with_query "/p" params) in
      List.for_all
        (fun (k, _) -> Uri.query_get u k = List.assoc_opt k params)
        params)

(* ---- headers / cookies ---- *)

let test_headers_case_insensitive () =
  let h = Headers.set Headers.empty "Content-Type" "text/html" in
  check (Alcotest.option string_c) "lower" (Some "text/html")
    (Headers.get h "content-type");
  check bool_c "mem" true (Headers.mem h "CONTENT-TYPE");
  let h = Headers.set h "content-TYPE" "text/plain" in
  check int_c "set replaces across case" 1 (List.length (Headers.get_all h "content-type"))

let test_cookie_parsing () =
  let h = Headers.set Headers.empty "Cookie" "a=1; b = 2 ;c=3" in
  let cookies = Headers.parse_cookies h in
  check (Alcotest.option string_c) "a" (Some "1") (List.assoc_opt "a" cookies);
  check (Alcotest.option string_c) "b trimmed" (Some "2") (List.assoc_opt "b" cookies);
  check (Alcotest.option string_c) "c" (Some "3") (List.assoc_opt "c" cookies)

let test_set_cookie () =
  let h = Headers.set_cookie Headers.empty ~name:"sid" ~value:"xyz" in
  check
    (Alcotest.list (Alcotest.pair string_c string_c))
    "set-cookie" [ ("sid", "xyz") ] (Headers.cookies_set_by h)

(* ---- requests / responses ---- *)

let test_request_params () =
  let r =
    Request.make ~body:[ ("b", "2"); ("a", "body") ] Request.POST "/x?a=query"
  in
  check (Alcotest.option string_c) "query wins" (Some "query") (Request.param r "a");
  check (Alcotest.option string_c) "form" (Some "2") (Request.param r "b");
  check string_c "default" "z" (Request.param_or r "c" ~default:"z")

let test_response_helpers () =
  check int_c "ok" 200 (Response.status_code (Response.ok "x").Response.status);
  check int_c "forbidden" 403
    (Response.status_code (Response.forbidden "r").Response.status);
  let r = Response.redirect "/there" in
  check (Alcotest.option string_c) "location" (Some "/there")
    (Headers.get r.Response.headers "location");
  check bool_c "redirect is success" true (Response.is_success r);
  let r = Response.with_cookie (Response.ok "x") ~name:"k" ~value:"v" in
  check
    (Alcotest.list (Alcotest.pair string_c string_c))
    "cookie attached" [ ("k", "v") ]
    (Headers.cookies_set_by r.Response.headers)

(* ---- sessions ---- *)

let test_sessions () =
  let t = Session.create () in
  let s1 = Session.start t ~user:"alice" ~now:5 in
  let s2 = Session.start t ~user:"alice" ~now:6 in
  check bool_c "distinct sids" true (s1.Session.sid <> s2.Session.sid);
  (match Session.find t ~sid:s1.Session.sid with
  | Some s -> check string_c "user" "alice" s.Session.user
  | None -> Alcotest.fail "session lost");
  check int_c "active" 2 (Session.active t);
  Session.destroy t ~sid:s1.Session.sid;
  check int_c "after destroy" 1 (Session.active t);
  Session.expire_older_than t ~tick:10;
  check int_c "expired" 0 (Session.active t)

(* ---- client ---- *)

let test_client_cookies_and_redirects () =
  let server (req : Request.t) =
    match req.Request.uri.Uri.path with
    | "/login" ->
        Response.with_cookie (Response.ok "logged in") ~name:"sid" ~value:"s1"
    | "/bounce" -> Response.redirect "/target"
    | "/target" -> (
        match Request.cookie req "sid" with
        | Some sid -> Response.ok ("hello " ^ sid)
        | None -> Response.unauthorized "no cookie")
    | _ -> Response.not_found "?"
  in
  let client = Client.make ~name:"tester" server in
  ignore (Client.get client "/login");
  check (Alcotest.option string_c) "jar" (Some "s1")
    (List.assoc_opt "sid" (Client.cookies client));
  let r = Client.get client "/bounce" in
  check string_c "followed redirect with cookie" "hello s1" r.Response.body;
  check bool_c "history" true (Client.saw client "hello s1")

let test_client_redirect_loop_bounded () =
  let server (req : Request.t) =
    ignore req;
    Response.redirect "/loop"
  in
  let client = Client.make server in
  let r = Client.get client "/loop" in
  check int_c "gives up with 302" 302 (Response.status_code r.Response.status)

(* ---- html / script filter ---- *)

let test_html_escape () =
  check string_c "escape" "&lt;a&gt; &amp; &quot;b&#39;&quot;"
    (Html.escape "<a> & \"b'\"");
  check bool_c "page is well formed" true
    (Html.page ~title:"t" "body" <> "")

let test_contains_script () =
  check bool_c "script tag" true (Html.contains_script "<SCRIPT>x</script>");
  check bool_c "handler" true (Html.contains_script "<img onerror=alert(1)>");
  check bool_c "spaced handler" true (Html.contains_script "<a onclick = \"x\">");
  check bool_c "javascript url" true (Html.contains_script "<a href=javascript:x>");
  check bool_c "clean" false (Html.contains_script "<b>only bold</b>");
  check bool_c "word containing on" false (Html.contains_script "ongoing = fine? no tag");
  (* 'ongoing' does not match because there is no '=' right after the letters *)
  check bool_c "online text" false (Html.contains_script "we are online today");
  check bool_c "tab before =" true (Html.contains_script "<img onerror\t=alert(1)>");
  check bool_c "newline before =" true (Html.contains_script "<a onclick\n=x>");
  check bool_c "tab inside scheme" true (Html.contains_script "<a href=\"java\tscript:x\">");
  check bool_c "newline before colon" true (Html.contains_script "javascript\n:x")

let test_strip_scripts () =
  check string_c "script removed" "ab"
    (Html.strip_scripts "a<script>evil()</script>b");
  check string_c "unterminated" "a" (Html.strip_scripts "a<script>evil(");
  check string_c "handler removed" "<img >"
    (Html.strip_scripts "<img onerror=\"alert(1)\">");
  check string_c "js url neutered" "<a href=x>" (Html.strip_scripts "<a href=javascript:x>");
  check string_c "case insensitive" "" (Html.strip_scripts "<ScRiPt>x</sCrIpT>");
  check string_c "clean unchanged" "<b>hello</b>" (Html.strip_scripts "<b>hello</b>");
  check string_c "joined halves stripped too" "ab"
    (Html.strip_scripts "a<scr<script>x</script>ipt>alert(1)</script>b");
  check string_c "joined scheme stripped too" "<a href=x>"
    (Html.strip_scripts "<a href=javajavascript:script:x>");
  check string_c "tab before =" "<img >" (Html.strip_scripts "<img onerror\t=alert(1)>");
  check string_c "tab inside scheme" "<a href=\"x\">"
    (Html.strip_scripts "<a href=\"java\tscript:x\">");
  (* each removal joins its neighbours into the next script element *)
  let rec nest depth =
    if depth = 0 then "<script>x</script>"
    else "<scr" ^ nest (depth - 1) ^ "ipt>y</script>"
  in
  check string_c "64 joined levels" "ab" (Html.strip_scripts ("a" ^ nest 64 ^ "b"))

(* A clean page is the common case at the perimeter: it must come back
   as the very same string, with nothing copied. *)
let test_strip_clean_is_zero_copy () =
  let page =
    Html.page ~title:"t"
      (String.concat ""
         (List.init 200 (fun i ->
              Html.element "p" ~attrs:[ ("class", "c") ]
                (Printf.sprintf "note %d: ongoing = on time" i))))
  in
  check bool_c "same string" true (Html.strip_scripts page == page)

let prop_strip_scripts_is_sound =
  let arb =
    QCheck.make ~print:(fun s -> s)
      QCheck.Gen.(
        map (String.concat "")
          (list_size (0 -- 12)
             (oneofl
                [
                  "<script>"; "</script>"; "<scr"; "ipt>"; "onload="; "on";
                  "load="; "'x'"; "\"y\""; "javascript:"; "java"; "script:";
                  "<b>safe</b>"; "hello "; "<img src=p>"; "="; " ";
                ])))
  in
  QCheck.Test.make ~name:"strip_scripts output never contains script" ~count:500
    arb (fun html -> not (Html.contains_script (Html.strip_scripts html)))

(* Adversarial pages for the differential tests against [Html_ref]:
   fragments that split, case-mangle, whitespace-pad, nest and leave
   unterminated the three script constructs, glued in any order with
   random bytes between them. *)
let arb_adversarial =
  let fragments =
    [
      "<script>"; "</script>"; "<ScRiPt"; "</SCRIPT>"; "</script >"; "<scr";
      "ipt>"; "ipt"; "<scr<script>x</script>ipt>"; "<"; ">"; "<a "; "/>";
      "<img src=p "; "onload="; "ONCLICK = "; "onerror\t="; "on"; "load";
      "click"; "="; " "; "\t"; "\n"; "'x'"; "\"y\""; "\"open"; "javascript:";
      "JavaScript:"; "java"; "script:"; "java\tscript:"; "jav\nascript:"; ":";
      "<b>safe</b>"; "hello "; "ongoing"; "x"; "1";
    ]
  in
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      map (String.concat "")
        (list_size (0 -- 24)
           (frequency
              [ (4, oneofl fragments); (1, map (String.make 1) printable) ])))

let no_control_space =
  String.map (function '\t' | '\n' | '\r' | '\x0c' -> ' ' | c -> c)

let prop_detect_matches_reference =
  QCheck.Test.make ~name:"script detection agrees with the reference filter"
    ~count:1000 arb_adversarial (fun html ->
      (* the reference knows no whitespace but the space character *)
      let html = no_control_space html in
      Html.contains_script html = Html_ref.contains_script html)

let prop_detect_covers_reference =
  QCheck.Test.make ~name:"script detection finds all the reference finds"
    ~count:1000 arb_adversarial (fun html ->
      (not (Html_ref.contains_script html)) || Html.contains_script html)

let is_subsequence small big =
  let n = String.length small and m = String.length big in
  let rec go i j =
    i = n || (j < m && go (if small.[i] = big.[j] then i + 1 else i) (j + 1))
  in
  go 0 0

let prop_strip_sound_and_minimal =
  QCheck.Test.make
    ~name:"stripped pages are clean, stable, cut from the input, and clean \
           pages pass through as the same string"
    ~count:1000 arb_adversarial (fun html ->
      let out = Html.strip_scripts html in
      (not (Html.contains_script out))
      && (not (Html_ref.contains_script out))
      && Html.strip_scripts out == out
      && is_subsequence out html
      && Html.contains_script html = not (out == html))

(* Well-formed pages: scripts only where an element may start and
   handlers and javascript: URLs only inside attributes, so no removal
   joins its neighbours into a new construct. There the single pass
   must cut exactly what the reference's repeated passes cut. *)
let arb_well_formed =
  let open QCheck.Gen in
  let word = oneofl [ "hello"; "photo"; "friends"; "on time"; "42"; "a=b" ] in
  let attr =
    map2
      (fun name value -> Printf.sprintf " %s=\"%s\"" name value)
      (oneofl [ "class"; "href"; "src"; "onclick"; "OnLoad"; "onmouseover" ])
      (oneofl [ "p.png"; "go()"; "javascript:go()"; "JavaScript:x"; "a b" ])
  in
  let script =
    map2 ( ^ )
      (oneofl [ "<script>"; "<SCRIPT type=\"x\">"; "<Script>" ])
      (oneofl [ "alert(1)</script>"; "if (a < b) go()</script>"; "</script>" ])
  in
  let rec node depth =
    if depth = 0 then word
    else
      frequency
        [
          (3, word);
          (1, script);
          ( 2,
            map3
              (fun tag attrs kids ->
                Printf.sprintf "<%s%s>%s</%s>" tag (String.concat "" attrs)
                  (String.concat " " kids) tag)
              (oneofl [ "p"; "div"; "a"; "b" ])
              (list_size (0 -- 3) attr)
              (list_size (0 -- 3) (node (depth - 1))) );
        ]
  in
  QCheck.make ~print:(fun s -> s)
    (map (String.concat "") (list_size (1 -- 6) (node 3)))

let prop_strip_matches_reference =
  QCheck.Test.make ~name:"strip_scripts cuts what the reference cuts"
    ~count:1000 arb_well_formed (fun html ->
      Html.strip_scripts html = Html_ref.strip_scripts html)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "uri parse" `Quick test_uri_parse;
    Alcotest.test_case "uri normalization" `Quick test_uri_normalization;
    Alcotest.test_case "uri with_query" `Quick test_uri_with_query;
    Alcotest.test_case "uri decode edges" `Quick test_uri_decode_edge_cases;
    Alcotest.test_case "uri plus: path vs query" `Quick
      test_uri_plus_path_vs_query;
    Alcotest.test_case "headers case insensitive" `Quick
      test_headers_case_insensitive;
    Alcotest.test_case "cookie parsing" `Quick test_cookie_parsing;
    Alcotest.test_case "set cookie" `Quick test_set_cookie;
    Alcotest.test_case "request params" `Quick test_request_params;
    Alcotest.test_case "response helpers" `Quick test_response_helpers;
    Alcotest.test_case "sessions" `Quick test_sessions;
    Alcotest.test_case "client cookies and redirects" `Quick
      test_client_cookies_and_redirects;
    Alcotest.test_case "client redirect loop bounded" `Quick
      test_client_redirect_loop_bounded;
    Alcotest.test_case "html escape" `Quick test_html_escape;
    Alcotest.test_case "contains_script" `Quick test_contains_script;
    Alcotest.test_case "strip_scripts" `Quick test_strip_scripts;
    Alcotest.test_case "strip_scripts: clean page is zero-copy" `Quick
      test_strip_clean_is_zero_copy;
  ]
  @ qsuite
      [
        prop_uri_query_roundtrip;
        prop_strip_scripts_is_sound;
        prop_detect_matches_reference;
        prop_detect_covers_reference;
        prop_strip_sound_and_minimal;
        prop_strip_matches_reference;
      ]

(* ---- dns ---- *)

let test_dns_records_and_resolution () =
  let dns = Dns.create ~zone:"w5.example" in
  check string_c "zone" "w5.example" (Dns.zone dns);
  (* apex and www resolve to the front end *)
  check bool_c "apex" true (Dns.resolve dns ~host:"w5.example" = Some Dns.Front_end);
  check bool_c "www" true (Dns.resolve dns ~host:"WWW.W5.Example" = Some Dns.Front_end);
  (* canonical app hosts *)
  check string_c "app host (lowercased)" "crop.deva.w5.example"
    (Dns.app_host dns ~app_id:"devA/crop");
  let host = Dns.register_app dns ~app_id:"devA/crop" in
  check bool_c "resolves to app" true
    (Dns.resolve dns ~host = Some (Dns.App "devA/crop"));
  (* out of zone *)
  check bool_c "foreign" true (Dns.resolve dns ~host:"evil.com" = None);
  check bool_c "unknown in zone" true (Dns.resolve dns ~host:"nope.w5.example" = None);
  Dns.remove_record dns ~host;
  check bool_c "removed" true (Dns.resolve dns ~host = None)

let test_dns_wildcards_and_cnames () =
  let dns = Dns.create ~zone:"w5.example" in
  Dns.add_record dns ~host:"*.photos" (Dns.App "core/photos");
  check bool_c "wildcard" true
    (Dns.resolve dns ~host:"anything.photos.w5.example" = Some (Dns.App "core/photos"));
  check bool_c "deep wildcard" true
    (Dns.resolve dns ~host:"a.b.photos.w5.example" = Some (Dns.App "core/photos"));
  (* cname chain *)
  Dns.add_record dns ~host:"pix" (Dns.Cname "real.photos");
  Dns.add_record dns ~host:"real.photos" (Dns.App "core/photos");
  check bool_c "cname" true
    (Dns.resolve dns ~host:"pix.w5.example" = Some (Dns.App "core/photos"));
  (* loops terminate *)
  Dns.add_record dns ~host:"a" (Dns.Cname "b");
  Dns.add_record dns ~host:"b" (Dns.Cname "a");
  check bool_c "loop safe" true (Dns.resolve dns ~host:"a.w5.example" = None);
  check bool_c "records listed" true (List.length (Dns.records dns) >= 5)

let suite =
  suite
  @ [
      Alcotest.test_case "dns records and resolution" `Quick
        test_dns_records_and_resolution;
      Alcotest.test_case "dns wildcards and cnames" `Quick
        test_dns_wildcards_and_cnames;
    ]

(* ---- misc coverage ---- *)

let test_uri_to_string_and_pp () =
  let u = Uri.parse "/a/b?x=1" in
  check string_c "to_string" "/a/b?x=1" (Uri.to_string u);
  check string_c "pp agrees" (Uri.to_string u) (Format.asprintf "%a" Uri.pp u)

let test_percent_encode_reserved () =
  check string_c "space" "a%20b" (Uri.percent_encode "a b");
  check string_c "amp" "a%26b" (Uri.percent_encode "a&b");
  check string_c "equals" "a%3db" (Uri.percent_encode "a=b");
  check string_c "unreserved kept" "a-b_c.d~e" (Uri.percent_encode "a-b_c.d~e")

let test_headers_add_vs_set () =
  let h = Headers.add (Headers.add Headers.empty "X" "1") "x" "2" in
  check int_c "add keeps both" 2 (List.length (Headers.get_all h "X"));
  check (Alcotest.option string_c) "get first" (Some "1") (Headers.get h "x");
  let h = Headers.set h "X" "3" in
  check (Alcotest.list string_c) "set collapses" [ "3" ] (Headers.get_all h "x")

let test_request_pp_and_cookie () =
  let r =
    Request.make
      ~headers:(Headers.set Headers.empty "Cookie" "k=v")
      Request.GET "/path"
  in
  check (Alcotest.option string_c) "cookie" (Some "v") (Request.cookie r "k");
  check (Alcotest.option string_c) "missing cookie" None (Request.cookie r "z");
  check bool_c "pp mentions path" true
    (let s = Format.asprintf "%a" Request.pp r in
     String.length s > 0)

let test_response_statuses () =
  List.iter
    (fun (r, code) ->
      check int_c (string_of_int code) code (Response.status_code r.Response.status))
    [
      (Response.bad_request "x", 400);
      (Response.unauthorized "x", 401);
      (Response.not_found "x", 404);
      (Response.too_many_requests "x", 429);
      (Response.server_error "x", 500);
    ];
  check bool_c "500 not success" false (Response.is_success (Response.server_error "x"));
  check string_c "reason" "Too Many Requests" (Response.status_reason Response.Too_many_requests_429)

let test_session_expiry_boundary () =
  let t = Session.create () in
  let s = Session.start t ~user:"u" ~now:10 in
  Session.expire_older_than t ~tick:10;
  (* created_at = 10 is NOT strictly older than 10 *)
  check bool_c "boundary kept" true (Session.find t ~sid:s.Session.sid <> None);
  Session.expire_older_than t ~tick:11;
  check bool_c "now expired" true (Session.find t ~sid:s.Session.sid = None)

let test_html_builders () =
  check string_c "link" "<a href=\"/x\">go</a>" (Html.link ~href:"/x" "go");
  check string_c "ul" "<ul><li>a</li></ul>" (Html.ul [ "a" ]);
  check string_c "attrs escaped" "<i a=\"&lt;\">x</i>"
    (Html.element "i" ~attrs:[ ("a", "<") ] "x")

let suite =
  suite
  @ [
      Alcotest.test_case "uri to_string/pp" `Quick test_uri_to_string_and_pp;
      Alcotest.test_case "percent encode reserved" `Quick
        test_percent_encode_reserved;
      Alcotest.test_case "headers add vs set" `Quick test_headers_add_vs_set;
      Alcotest.test_case "request pp and cookie" `Quick test_request_pp_and_cookie;
      Alcotest.test_case "response statuses" `Quick test_response_statuses;
      Alcotest.test_case "session expiry boundary" `Quick
        test_session_expiry_boundary;
      Alcotest.test_case "html builders" `Quick test_html_builders;
    ]

let test_get_params_merge_with_query () =
  let server (req : Request.t) =
    Response.ok
      (Printf.sprintf "%s|%s"
         (Request.param_or req "a" ~default:"-")
         (Request.param_or req "b" ~default:"-"))
  in
  let client = Client.make server in
  let r = Client.get client "/p?a=1" ~params:[ ("b", "2") ] in
  check string_c "both params survive the merge" "1|2" r.Response.body

let test_percent_decode_uppercase_hex () =
  check string_c "uppercase hex" " " (Uri.percent_decode "%20");
  check string_c "mixed case" "~" (Uri.percent_decode "%7E");
  check string_c "upper letters" "\xff" (Uri.percent_decode "%FF")

let suite =
  suite
  @ [
      Alcotest.test_case "get params merge" `Quick test_get_params_merge_with_query;
      Alcotest.test_case "percent decode uppercase" `Quick
        test_percent_decode_uppercase_hex;
    ]

let prop_escape_is_inert =
  let arb =
    QCheck.make ~print:(fun s -> s)
      QCheck.Gen.(string_size (0 -- 40) ~gen:(map Char.chr (32 -- 126)))
  in
  QCheck.Test.make ~name:"escaped text contains no active characters" ~count:300
    arb (fun s ->
      let out = Html.escape s in
      String.for_all (fun c -> c <> '<' && c <> '>' && c <> '"' && c <> '\'') out
      (* '&' survives only as part of an entity we generated *)
      && not (Html.contains_script ("<div>" ^ out ^ "</div>")))

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_escape_is_inert ]
