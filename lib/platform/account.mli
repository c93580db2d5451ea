(** End-user accounts.

    Creating an account mints the user's tags:
    - a {e secrecy} tag that taints everything the user stores (the
      boilerplate privacy policy hangs off this tag);
    - a {e write-protect} integrity tag that gates every mutation of
      the user's data (§3.1 "Write Protection");
    - optionally, a {e read-protect} restricted secrecy tag (§3.1
      "read protection"), minted by
      {!Platform.enable_read_protection}.

    The account record holds the user's full capability set (dual
    privilege over all their tags); the gateway carves out least-
    privilege subsets of it when dispatching applications. *)

open W5_difc

type t = {
  user : string;
  password : string;
  principal : Principal.t;
  secret_tag : Tag.t;
  write_tag : Tag.t;
  mutable read_tag : Tag.t option;
      (** Set once, by {!Platform.enable_read_protection}, the only
          setter in the public API. That call also puts the account
          on the platform's read-protected list, which
          {!Platform.app_caps_for} scans. Assigning the field directly
          would leave the account off the list: apps would never
          receive its read capability (a denial, not a leak). *)
  mutable caps : Capability.Set.t;
  policy : Policy.t;
}

val make : user:string -> password:string -> t
(** Mints principal and tags; does not touch any filesystem. *)

val owns_tag : t -> Tag.t -> bool
(** Is this one of the account's own tags? The perimeter uses this for
    the boilerplate "destined for Bob's browser" rule. *)

val secrecy_labels : t -> Label.t
(** The secrecy label user data carries: secret tag plus read tag if
    read protection is on. *)

val data_labels : t -> Flow.labels
(** Full labels for the user's stored objects: {!secrecy_labels} for
    secrecy, the write tag for integrity. *)

val verify_password : t -> string -> bool
val pp : Format.formatter -> t -> unit
