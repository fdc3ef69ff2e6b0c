(** Removal of mutually redundant edges (paper Section 2.2.5).

    Because all queries in a phase are answered against the frozen
    cluster graph [H_{i-1}], two edges added in the same phase can each
    certify a [t1]-path for the other; Theorem 13's leapfrog argument
    requires at most one of each such pair to survive. Edges [{u, v}]
    and [{u', v'}] are {e mutually redundant} when, for a consistent
    pairing of endpoints,

    (i)  [sp_H(u, u') + |u'v'| + sp_H(v', v) <= t1 |uv|], and
    (ii) [sp_H(u', u) + |uv| + sp_H(v, v') <= t1 |u'v'|].

    A conflict graph [J] gets a node per implicated edge and an edge
    per redundant pair; edges outside a maximal independent set of [J]
    are deleted. Deleting an independent set member's neighbors is safe
    because each deleted edge retains a surviving counterpart
    (Theorem 10's proof). *)

type result = {
  kept : Graph.Wgraph.edge array;
  removed : Graph.Wgraph.edge array;
  n_conflict_nodes : int;  (** edges implicated in some redundant pair *)
  n_conflict_edges : int;  (** mutually redundant pairs found *)
}

(** [conflict_graph ~h ~params added] is the graph [J] of Section
    2.2.5: one vertex per element of [added] (same indexing), one
    unit-weight edge per mutually redundant pair. The distributed
    engine runs its simulated MIS on this graph; {!filter} uses a
    sequential greedy MIS internally.

    Within one bin the weights differ by at most the bin ratio, so the
    weight precondition [t1 w1 - w2 >= 0] passes for nearly every pair,
    and a pair scan would search [H] for each of them. Instead, for
    each edge [e1] one plain bounded search on [H] from [e1.u], of
    bound [t1 w1 - w_min] ([w_min] the smallest weight in [added]),
    collects the later edges with an endpoint in its ball; only those
    are tested, in ascending index order. Either pairing of a conflict
    needs an endpoint of [e2] within the hop-bounded
    [sp_H <= t1 w1 - w2] of [e1.u], and a plain distance never exceeds
    the hop-bounded one, so no conflict is lost, under any metric. [J]
    is the pair scan's graph: the same edges, inserted in the same
    order. *)
val conflict_graph :
  ?max_hops:int -> h:Cluster_graph.t -> params:Params.t ->
  Graph.Wgraph.edge array -> Graph.Wgraph.t

(** [filter ~h ~params added] partitions the phase's added edges,
    keeping a maximal independent set of the conflict graph (greedy by
    edge order). [added] edges carry weights in the space of [h].
    [max_hops] (default {!Params.query_hop_limit}) is the hop budget of
    the [sp_H] searches; energy metrics need a wider budget because the
    bin weight ratio exceeds [r]. *)
val filter :
  ?max_hops:int -> h:Cluster_graph.t -> params:Params.t ->
  Graph.Wgraph.edge array -> result

(** [mutually_redundant ~h ~params e1 e2] tests conditions (i) and (ii)
    under both endpoint pairings. *)
val mutually_redundant :
  ?max_hops:int -> h:Cluster_graph.t -> params:Params.t ->
  Graph.Wgraph.edge -> Graph.Wgraph.edge -> bool

(** [d_j ~h ~max_hops ~bound e1 e2] is the conflict-graph metric of
    Lemma 20: the smaller, over the two endpoint pairings, of the sum
    of the two hop-bounded [sp_H] distances. Exposed for the
    metric-axiom property tests (Figures 5-6). *)
val d_j :
  h:Cluster_graph.t -> max_hops:int -> bound:float -> Graph.Wgraph.edge ->
  Graph.Wgraph.edge -> float
