(** DSQL-plan executor: runs the *generated SQL text* of each DSQL step
    (paper §2.4), which is the strongest possible check on DSQL generation.

    For every DMS step, the step's source SQL statement is re-parsed and
    algebrized against a scratch shell database that also contains the
    schemas of previously materialized temp tables, executed on every node
    holding input data, and the resulting rows are routed by the DMS
    runtime into the destination temp table. The final Return step's SQL
    produces the client result. A temp table is the DMS runtime's own
    {!Appliance.dstream}, and every operator of a step runs through
    {!Appliance.shard_exec}, so payloads keep the appliance's engine
    representation end to end. *)

open Algebra

type rows = Catalog.Value.t array list

type state = {
  app : Appliance.t;
  scratch : Catalog.Shell_db.t;      (** base schemas + temp schemas *)
  temps : (string, Appliance.dstream) Hashtbl.t;
      (** materialized temp tables, by lower-cased name *)
  plan_reg : Registry.t;
}

exception Dsql_exec_error of string

(** A fresh execution state over the appliance's schemas; temp tables
    register their schemas here as steps materialize them. *)
val create : Appliance.t -> Registry.t -> state

(** Execute a full DSQL plan: every step's SQL text is re-parsed,
    algebrized, run on the nodes holding its inputs, and moved by the DMS
    runtime; returns the client result of the Return step. Each step is
    one injectable step drawing from [fault] (default {!Fault.none}). *)
val run : ?fault:Fault.plan -> Appliance.t -> Dsql.Generate.plan -> Local.rset
