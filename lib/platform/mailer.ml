open W5_os
open W5_http

type email = {
  to_user : string;
  subject : string;
  body : string;
}

let outboxes = Kernel.Local.create (fun () -> Hashtbl.create 16)

let user_box platform user =
  let table = Kernel.Local.get outboxes (Platform.kernel platform) in
  match Hashtbl.find_opt table user with
  | Some box -> box
  | None ->
      let box = ref [] in
      Hashtbl.replace table user box;
      box

let outbox platform ~user = List.rev !(user_box platform user)
let outbox_size platform ~user = List.length !(user_box platform user)
let clear_outbox platform ~user = user_box platform user := []

let deliver_app_page platform ~user ~app ?(query = []) ~subject () =
  match Platform.find_account platform user with
  | None -> Error ("no such user: " ^ user)
  | Some account when not (Policy.app_enabled account.Account.policy app) ->
      Error (user ^ " has not enabled " ^ app)
  | Some account -> (
      let request =
        Request.make ~client:("mailer:" ^ user) Request.GET
          (Uri.with_query ("/app/" ^ app) query)
      in
      let response =
        Gateway.conclude platform
          (Gateway.submit_as platform ~viewer:(Some account) request)
      in
      match Response.status_code response.Response.status with
      | 200 ->
          let email = { to_user = user; subject; body = response.Response.body } in
          let box = user_box platform user in
          box := email :: !box;
          Ok email
      | code ->
          Error (Printf.sprintf "HTTP %d: %s" code response.Response.body))

type digest_stats = {
  delivered : int;
  refused : int;
  skipped : int;
}

let run_digests platform ~app ?query ~subject () =
  List.fold_left
    (fun stats (account : Account.t) ->
      if not (Policy.app_enabled account.Account.policy app) then
        { stats with skipped = stats.skipped + 1 }
      else
        match
          deliver_app_page platform ~user:account.Account.user ~app ?query
            ~subject ()
        with
        | Ok _ -> { stats with delivered = stats.delivered + 1 }
        | Error _ -> { stats with refused = stats.refused + 1 })
    { delivered = 0; refused = 0; skipped = 0 }
    (Platform.accounts platform)
