(** The W5 meta-application: one logical machine hosting many
    applications over commingled user data (§2, Figure 2).

    A [Platform.t] bundles the kernel, the account table, the
    application registry and the session table — everything the
    provider operates. The provider-written code in this module is
    part of the trusted computing base; developer code never touches
    [Platform.t] directly, only its own {!W5_os.Kernel.ctx}.

    {b Data layout.} Every user [u] owns [/users/u/] (directory
    secrecy: [u]'s secrecy tags). Files beneath it carry
    [S = {u.secret (, u.read)}, I = {u.write}] — tainted for privacy,
    write-protected for integrity. Applications may keep scratch state
    under [/apps/<dev>/<app>/]. *)

open W5_difc
open W5_os
open W5_store

type t

val create : ?enforcing:bool -> unit -> t
(** Boot a platform: fresh kernel, [/users], [/apps] and the object
    store root. *)

val kernel : t -> Kernel.t
val registry : t -> App_registry.t
val sessions : t -> W5_http.Session.t
val provider : t -> Principal.t
val requests_served : t -> int
val count_request : t -> unit

val vetted_apps : t -> string list
(** The provider's vetted-software list (fed by editors, §3.2); the
    gateway consults it for users with integrity protection on. *)

val is_vetted : t -> string -> bool
val add_vetted : t -> string -> unit
val set_vetted : t -> string list -> unit

val set_rate_limit : t -> Rate_limit.t option -> unit
(** Provider-configured client throttling; [None] (the default)
    disables it. Applied by the gateway to [/app/…] routes. *)

val rate_limit : t -> Rate_limit.t option

val enable_dns : t -> zone:string -> W5_http.Dns.t
(** Create the provider's DNS zone (Â§2: "all of W5 should have DNS and
    HTTP front-ends"), register a vanity host for every currently
    published application, and attach it to the gateway. Returns the
    zone so the provider can add further records; apps published later
    need {!W5_http.Dns.register_app} explicitly. *)

val dns : t -> W5_http.Dns.t option

val set_app_limits : t -> app:string -> Resource.limits -> unit
(** Provider-tuned sandbox for one application (Â§3.5): e.g. tighter
    quotas for an app the editors flagged, or a larger disk budget for
    the photo service. *)

val app_limits : t -> app:string -> Resource.limits
(** The limits the gateway applies when spawning this app's processes
    ({!W5_os.Resource.default_app_limits} unless overridden). *)

val with_ctx :
  t -> name:string -> ?owner:Principal.t -> ?labels:Flow.labels ->
  ?caps:Capability.Set.t -> ?limits:Resource.limits ->
  (Kernel.ctx -> ('a, Os_error.t) result) -> ('a, Os_error.t) result
(** Run [f] now in a fresh process through {!W5_os.Kernel.exec}
    (defaults: provider-owned, bottom labels, no caps, unlimited). The
    workhorse for provider-side operations and tests. The process is
    never queued, and it ends like any other: a quota kill returns
    [Error (Quota_exceeded _)] and any other exception
    [Error (Invalid "uncaught: …")], both audited. *)

(** {1 Accounts} *)

val signup : t -> user:string -> password:string -> (Account.t, string) result
(** Create the account, mint its tags, build its home directory and
    empty [profile] / [friends] records. User names are restricted to
    [A-Za-z0-9_-]+ (they appear in paths, cookies and hostnames). *)

val find_account : t -> string -> Account.t option
val account_exn : t -> string -> Account.t
val accounts : t -> Account.t list
val read_protected : t -> Account.t list
(** Every account with a read tag, each once, most recently protected
    first: the accounts {!app_caps_for} consults for read grants. *)

val owner_of_tag : t -> Tag.t -> Account.t option
(** Which account minted this tag — how the perimeter finds the policy
    that governs an unfamiliar taint. *)

val register_tag_owner : t -> Tag.t -> user:string -> unit
(** Record that [user]'s account answers for [tag]'s export policy.
    Provider-side (TCB): used when minting non-personal tags such as
    group tags. *)

val enable_read_protection : t -> Account.t -> Tag.t
(** Mint the account's restricted read tag (or return the one it
    has), grant the account dual privilege over it, register its
    ownership, add the account to the read-protected list that
    {!app_caps_for} scans, and relabel the user's existing files to
    carry the tag. Repeating the call adds nothing. Declassifier gates
    installed {e before} this call do not receive the new tag's
    capabilities — reinstall them
    ({!Declassifier.install_and_authorize}) to re-authorize exports. *)

val authenticate : t -> user:string -> password:string -> bool
val login :
  t -> user:string -> password:string -> (W5_http.Session.session, string) result
val logout : t -> sid:string -> unit
val session_user : t -> sid:string -> string option

val expire_sessions : t -> max_age:int -> int
(** Drop sessions older than [max_age] kernel ticks; returns how many
    survived. Providers run this periodically. *)

(** {1 User data access (provider-side)} *)

val users_root : string
val user_dir : string -> string
val user_file : string -> string -> string
(** [user_file "bob" "profile"] is ["/users/bob/profile"]. *)

val write_user_record :
  t -> Account.t -> file:string -> Record.t -> (unit, Os_error.t) result
(** Create or overwrite a record file under the user's home with the
    user's own authority (labels and caps). Used by the provider
    front-end on the user's behalf and by tests to seed data. *)

val read_user_record :
  t -> Account.t -> file:string -> (Record.t, Os_error.t) result

val user_mkdir : t -> Account.t -> dir:string -> (unit, Os_error.t) result

val delete_user_file :
  t -> Account.t -> file:string -> (unit, Os_error.t) result
(** Unlink a file under the user's home with the user's own authority
    (write protection applies as usual). *)

(** {1 Application management} *)

val enable_app : t -> user:string -> app:string -> (unit, string) result
(** Policy bookkeeping plus the registry's install counter. *)

val app_caps_for :
  t -> viewer:Account.t option -> app:string -> Capability.Set.t
(** The least-privilege capability set an app process receives when
    serving [viewer]: the viewer's write capability if they delegated
    writes to this app, plus the read capability ([t+]) of every
    account whose owner granted this app read access to their
    protected data — never any [t-] (export stays with
    declassifiers).

    Cost: O(read-protected accounts), independent of the total number
    of accounts; grants and revocations are read from each owner's
    live {!Policy} on every call, so a revocation takes effect on the
    next request. *)
