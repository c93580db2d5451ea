open W5_difc

type t = {
  user : string;
  password : string;
  principal : Principal.t;
  secret_tag : Tag.t;
  write_tag : Tag.t;
  mutable read_tag : Tag.t option;
  mutable caps : Capability.Set.t;
  policy : Policy.t;
}

let make ~user ~password =
  let principal = Principal.make Principal.End_user user in
  let secret_tag = Tag.fresh ~name:(user ^ ".secret") Tag.Secrecy in
  let write_tag = Tag.fresh ~name:(user ^ ".write") Tag.Integrity in
  let caps =
    Capability.Set.grant_dual secret_tag
      (Capability.Set.grant_dual write_tag Capability.Set.empty)
  in
  {
    user;
    password;
    principal;
    secret_tag;
    write_tag;
    read_tag = None;
    caps;
    policy = Policy.create ();
  }

let owns_tag t tag =
  Tag.equal tag t.secret_tag || Tag.equal tag t.write_tag
  || match t.read_tag with Some rt -> Tag.equal tag rt | None -> false

let secrecy_labels t =
  let base = Label.singleton t.secret_tag in
  match t.read_tag with
  | None -> base
  | Some rt -> Label.add rt base

let data_labels t =
  Flow.make ~secrecy:(secrecy_labels t)
    ~integrity:(Label.singleton t.write_tag) ()

let verify_password t password = String.equal t.password password

let pp fmt t =
  Format.fprintf fmt "account:%s tags=(%a,%a%t)" t.user Tag.pp t.secret_tag
    Tag.pp t.write_tag (fun fmt ->
      match t.read_tag with
      | Some rt -> Format.fprintf fmt ",%a" Tag.pp rt
      | None -> ())
