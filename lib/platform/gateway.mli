(** The HTTP front-end (§2 "Providers"): DNS/HTTP face of the
    meta-application.

    The gateway authenticates the user from the session cookie,
    resolves the requested application, spawns a least-privilege
    process for it, runs it to completion, and pushes whatever it
    responded through the {!Perimeter}. Provider-written routes
    (signup, login, settings, the app directory, the audit viewer) are
    part of the trusted computing base; everything under [/app/…] is
    developer code behind the perimeter.

    Routes:
    - [GET /] — home page and app directory
    - [POST /signup] (user, pass), [POST /login], [GET /logout]
    - [POST /enable?app=ID] — one-click "accept an invitation"
    - [POST /invite?to=U&app=ID&write=on], [GET /invites],
      [POST /invite_accept?id=I], [POST /invite_decline?id=I]
    - [GET/POST /settings?…] — policy front-end (declassifier choice,
      write delegation, module choice, version pinning, JavaScript
      opt-in, read protection, integrity protection)
    - [GET /me] — the logged-in user's policy dashboard (data-free)
    - [POST /group_create?name=G], [POST /group_add?name=G&user=U],
      [POST /group_remove?name=G&user=U] — founder-managed circles
    - [GET /source?app=ID] — audit an open-source app's code
    - [GET /audit?filter=S] — the developer's data-free denial log
    - [ANY /app/<dev>/<name>[/…]] — dispatch to developer code
      ([?version=] or a pinned version selects older releases)

    When the platform has a DNS zone ({!Platform.enable_dns}), a
    [Host:] header naming a registered vanity host routes directly to
    its application regardless of the path. [/app/…] requests are
    token-bucket throttled per client when the provider configured
    {!Platform.set_rate_limit}. *)

open W5_http

val handler : Platform.t -> Request.t -> Response.t
(** The perimeter-facing server; plug directly into {!Client.make}.
    It is [conclude platform (submit platform request)]: one request
    path, whether or not a scheduler runs in between. *)

val slo_of : Platform.t -> W5_obs.Health.Slo.t
(** This platform's per-route SLO/error-budget ledger. {!conclude}
    feeds it on every request (route label and status code only —
    the same closed vocabulary as the request counters); [w5 health]
    renders it. Created on first use, default window/objective. *)

(** {1 Scheduled admission}

    The concurrent-traffic face of the gateway: {!submit} performs
    admission — authentication, routing, throttling, vetting, process
    spawn — without running the application, so thousands of requests
    can be in flight before a {!W5_os.Sched} drain interleaves them;
    {!conclude} then reads each process's outcome and pushes it
    through the perimeter; {!handler} is the two back to back. Each
    request gets one balanced trace span, opened at the admission
    tick, around its own work: a request that completes at submit (a
    provider front-end page, or an admission refusal) gets it there,
    so a page's syscalls nest under it; a process's span opens at
    conclusion. Request metrics, latency (admission tick to the
    process's finish tick, so the perimeter's gate ticks are not in
    it) and SLO spend are recorded at conclusion. *)

type pending
(** An admitted request awaiting its outcome. *)

val submit : Platform.t -> Request.t -> pending
(** Admission for a browser request: the viewer is whoever the
    session cookie names ({!submit_as} with that viewer). *)

val submit_as :
  Platform.t -> viewer:Account.t option -> Request.t -> pending
(** Admission on behalf of [viewer], whatever cookie the request
    carries: how the provider's own agents (the {!Mailer}) send a
    request down the same path, with the same throttle, span, request
    metrics and SLO accounting as a browser request. *)

val in_flight : pending -> bool
(** Still waiting on a live process (false once concluded-at-submit,
    exited, or killed). *)

val conclude : Platform.t -> pending -> Response.t
(** Resolve the request. If its process has not run yet (no drain
    happened), it runs first, inside the request's trace span, so its
    syscalls, gate calls and export nest under it. *)
