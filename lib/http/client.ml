type server = Request.t -> Response.t

type t = {
  client_name : string;
  server : server;
  mutable jar : (string * string) list;
  mutable history : string list;
}

let make ?(name = "anonymous") server =
  { client_name = name; server; jar = []; history = [] }

let name t = t.client_name
let cookies t = t.jar

let cookie_header t =
  if t.jar = [] then Headers.empty
  else
    Headers.set Headers.empty "Cookie"
      (String.concat "; " (List.map (fun (k, v) -> k ^ "=" ^ v) t.jar))

let absorb_cookies t response =
  List.iter
    (fun (name, value) ->
      t.jar <- (name, value) :: List.remove_assoc name t.jar)
    (Headers.cookies_set_by response.Response.headers)

let rec perform t request redirects_left =
  let response = t.server request in
  absorb_cookies t response;
  t.history <- response.Response.body :: t.history;
  match Headers.get response.Response.headers "location" with
  | Some location
    when response.Response.status = Response.Redirect_302 && redirects_left > 0
    ->
      perform t
        (Request.make ~headers:(cookie_header t) ~client:t.client_name
           Request.GET location)
        (redirects_left - 1)
  | Some _ | None -> response

let get ?(params = []) t path =
  (* merge [params] with any query already inline in [path] *)
  let u = Uri.parse path in
  let target = Uri.with_query u.Uri.path (u.Uri.query @ params) in
  perform t
    (Request.make ~headers:(cookie_header t) ~client:t.client_name Request.GET
       target)
    5

let post ?(form = []) t path =
  perform t
    (Request.make ~headers:(cookie_header t) ~client:t.client_name ~body:form
       Request.POST path)
    5

let last_bodies t = t.history

let saw t needle =
  List.exists (fun body -> Substring.contains body needle) t.history
