(* Concurrent client engine: a deterministic run-to-completion event
   loop multiplexing N logical clients over one logical-disk instance,
   with the group-commit queue drained between steps.  Functorized over
   any {!Ld_intf.S} that also exposes the group-commit introspection
   hooks, so the sharded front-end reuses it unchanged.  See
   engine.mli. *)

module Clock = Lld_sim.Clock
module Obs = Lld_obs.Obs
module Tr = Lld_obs.Trace

type client = Op.result option -> Op.t option

(* A direct-style client body runs on its own fiber: [perform] suspends
   it with the op as the generator's next value, and the next call
   resumes the continuation with that op's result.  [next] is what the
   next call does; it is [finished] while a step runs, so a body that
   returns or raises leaves the client done. *)
type _ Effect.t += Perform : Op.t -> Op.result Effect.t

let perform op = Effect.perform (Perform op)

let direct body : client =
  let finished _ = None in
  let next : client ref = ref finished in
  let resume k = function
    | Some r -> Effect.Deep.continue k r
    | None -> invalid_arg "Engine.direct: resumed without a result"
  in
  let handler =
    {
      Effect.Deep.retc = finished;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Perform op ->
            Some
              (fun (k : (a, _) Effect.Deep.continuation) ->
                next := resume k;
                Some op)
          | _ -> None);
    }
  in
  next := (fun _ -> Effect.Deep.match_with body perform handler);
  fun r ->
    let step = !next in
    next := finished;
    step r

type stats = {
  ops : int;
  commits : int;
  flushes : int;
  forced_flushes : int;
  max_batch : int;
}

module type ENGINE_LD = sig
  include Ld_intf.S

  val config : t -> Config.t
  val commit_due : t -> bool
  val commit_pending : t -> Types.Aru_id.t -> bool
  val pending_commits : t -> int
end

type status = Runnable | Parked of Types.Aru_id.t | Done

type cl = {
  gen : client;
  idx : int;
  mutable last : Op.result option;
  mutable status : status;
  mutable submit_ns : int;  (* virtual time the client parked *)
  mutable wake_ns : int;  (* virtual time its commit woke it *)
  mutable woken_aru : int;  (* ARU of the pending wake; -1 = none *)
}

module Make (Ld : ENGINE_LD) = struct
  module A = Op.Make (Ld)

  let run lld gens =
    let cfg = Ld.config lld in
    let group =
      cfg.Config.group_commit_window > 0 && cfg.Config.mode = Config.Concurrent
    in
    let clock = Ld.clock lld in
    let obs = Ld.obs lld in
    let counters = Ld.counters lld in
    let clients =
      Array.of_list
        (List.mapi
           (fun i g ->
             {
               gen = g;
               idx = i;
               last = None;
               status = Runnable;
               submit_ns = 0;
               wake_ns = 0;
               woken_aru = -1;
             })
           gens)
    in
    let n = Array.length clients in
    let parked : cl Queue.t = Queue.create () in
    let ops = ref 0 in
    let commits = ref 0 in
    let flushes = ref 0 in
    let forced = ref 0 in
    let max_batch = ref 0 in
    let finished = ref 0 in
    (* a flush drains the whole queue, so every parked waiter's commit is
       done; wake them in FIFO submission order, each with the [R_unit]
       its (translated) End_aru would have returned.  A parked client
       whose ARU another client aborted wakes the same way: its pending
       commit is resolved (as an abort), not still queued. *)
    let wake_committed () =
      let rec go () =
        match Queue.peek_opt parked with
        | Some c -> (
          match c.status with
          | Parked a when not (Ld.commit_pending lld a) ->
            ignore (Queue.pop parked);
            c.status <- Runnable;
            c.last <- Some Op.R_unit;
            c.wake_ns <- Clock.now_ns clock;
            c.woken_aru <- Types.Aru_id.to_int a;
            counters.Counters.commit_wakeups <-
              counters.Counters.commit_wakeups + 1;
            go ()
          | Parked _ | Runnable | Done -> ())
        | None -> ()
      in
      go ()
    in
    let flush ~forced:f () =
      let k = Ld.flush_commits lld in
      if k > 0 then begin
        incr flushes;
        if f then begin
          incr forced;
          counters.Counters.forced_flushes <-
            counters.Counters.forced_flushes + 1
        end;
        commits := !commits + k;
        if k > !max_batch then max_batch := k
      end;
      wake_committed ()
    in
    (* the woken client runs again: close its causality chain and feed
       the wake-latency (time between the drain that woke it and its next
       scheduling slot) and whole-commit per-client latency stages *)
    let note_resume c =
      if c.woken_aru >= 0 then begin
        let aru = c.woken_aru in
        c.woken_aru <- -1;
        if Obs.recording obs then begin
          let now = Clock.now_ns clock in
          Obs.observe obs "aru.commit.wake" (max 0 (now - c.wake_ns));
          Obs.observe obs
            (Printf.sprintf "aru.commit.latency.c%d" c.idx)
            (max 0 (now - c.submit_ns));
          Obs.complete obs Tr.Aru "commit.resume" ~ts_ns:now ~dur_ns:0
            [ ("aru", Tr.I aru); ("client", Tr.I c.idx) ];
          Obs.event obs
            ~flow:(Tr.Flow_end, aru)
            Tr.Aru "commit"
            [ ("aru", Tr.I aru); ("stage", Tr.S "wake"); ("client", Tr.I c.idx) ]
        end
      end
    in
    while !finished < n do
      let ran = ref false in
      Array.iter
        (fun c ->
          match c.status with
          | Parked _ | Done -> ()
          | Runnable -> (
            ran := true;
            note_resume c;
            let last = c.last in
            c.last <- None;
            match c.gen last with
            | None ->
              c.status <- Done;
              incr finished
            | Some op ->
              let op =
                match op with
                | Op.End_aru a when group -> Op.Submit_commit a
                | op -> op
              in
              incr ops;
              let r = A.apply lld op in
              (match (op, r) with
              | Op.Submit_commit a, Op.R_unit ->
                c.status <- Parked a;
                c.submit_ns <- Clock.now_ns clock;
                Queue.push c parked
              | Op.End_aru _, Op.R_unit ->
                incr commits;
                c.last <- Some r
              | Op.Flush_commits, Op.R_int k ->
                if k > 0 then begin
                  incr flushes;
                  commits := !commits + k;
                  if k > !max_batch then max_batch := k
                end;
                c.last <- Some r;
                wake_committed ()
              | Op.Abort_aru _, r ->
                (* the abort may have dequeued another client's pending
                   commit: its waiter is resolvable now *)
                c.last <- Some r;
                wake_committed ()
              | _, r -> c.last <- Some r);
              if Ld.commit_due lld then flush ~forced:false ()))
        clients;
      (* everyone still alive is parked on a commit: the queue would
         never fill or expire on its own — drain it now *)
      if (not !ran) && not (Queue.is_empty parked) then flush ~forced:true ()
    done;
    (* leftovers (clients that finished while intents were still queued
       below the due thresholds) *)
    if Ld.pending_commits lld > 0 then flush ~forced:true ();
    {
      ops = !ops;
      commits = !commits;
      flushes = !flushes;
      forced_flushes = !forced;
      max_batch = !max_batch;
    }
end

include Make (Lld)
