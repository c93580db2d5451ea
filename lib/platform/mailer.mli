(** Outbound mail, simulated (§2: the recommendation engine "sends him
    daily e-mail with the 5 most 'relevant' photos and blog entries").

    E-mail leaves the platform, so it is an export like any other: the
    mailer requests the application's page as the recipient, through
    the very same {!Gateway.submit_as} → {!Gateway.conclude} →
    {!Perimeter} path a browser request takes, with its span, request
    metrics, SLO accounting and the recipient's throttle. A digest
    whose content some friend's declassifier refuses simply is not
    sent — there is no side door for mail.

    Delivered mail lands in a per-user outbox (the simulation stand-in
    for an SMTP spool); tests read the outbox as "what left the
    building". *)

type email = {
  to_user : string;
  subject : string;
  body : string;
}

val deliver_app_page :
  Platform.t -> user:string -> app:string ->
  ?query:(string * string) list -> subject:string -> unit ->
  (email, string) result
(** Run [app] as [user] with [query], export the page toward the user,
    and enqueue it as mail. The user must have enabled the app — mail
    is not a way to run code the user never chose. [Error] carries the
    reason (not enabled, refusal, missing app, app error); nothing is
    enqueued then. *)

val outbox : Platform.t -> user:string -> email list
(** Oldest first. *)

val outbox_size : Platform.t -> user:string -> int
val clear_outbox : Platform.t -> user:string -> unit

type digest_stats = {
  delivered : int;
  refused : int;
  skipped : int;  (** users who have not enabled the app *)
}

val run_digests :
  Platform.t -> app:string -> ?query:(string * string) list ->
  subject:string -> unit -> digest_stats
(** The "daily" batch: one delivery attempt per signed-up user who has
    enabled [app]. *)
