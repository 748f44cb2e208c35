package repro.baselines

import repro.graph.{LocalGraph, Triangles}
import repro.util.IntDoubleMap

/** SCD-lite — stand-in for SCD (Prat-Pérez et al., WWW'14), the parallel
  * triangle-based community detector the paper compares against in §C.1.
  *
  * Faithful elements: (1) triangle-guided seeding — vertices are processed in
  * decreasing clustering-coefficient order and each unvisited vertex absorbs
  * its unvisited neighbors that close a triangle with it (SCD's initial
  * partition); (2) hill-climbing refinement of vertex-to-community
  * assignments; (3) no quality knob — SCD has a single operating point, which
  * is exactly the behaviour the paper exploits (PAR-CC can sweep λ, SCD
  * cannot).
  *
  * Substitution (DESIGN.md §3): the refinement metric is a normalized-density
  * proxy score e(v,C)/√|C| rather than SCD's exact WCC estimator. This
  * preserves the comparison's shape: good quality on strong-triangle
  * community graphs, collapse on graphs with weak community structure.
  */
object Scd {

  /** Hill-climbing passes after seeding (fewer if a pass moves nothing). */
  private val RefinePasses = 3

  def cluster(g: LocalGraph): Array[Int] = {
    val n  = g.numVertices
    val tc = Triangles.count(g)
    val cc = Triangles.clusteringCoefficients(g, tc)

    // --- Phase 1: triangle-guided seeding (sequential greedy, as in SCD). ---
    val order = Array.tabulate(n)(identity).sortBy(v => (-cc(v), -g.degree(v)))
    val comm  = Array.fill(n)(-1)
    var nextId = 0
    order.foreach { v =>
      if (comm(v) == -1) {
        comm(v) = nextId
        var i = g.offsets(v)
        while (i < g.offsets(v + 1)) {
          val u = g.nbrs(i)
          if (comm(u) == -1 && tc.perEdge(i) > 0) comm(u) = nextId
          i += 1
        }
        nextId += 1
      }
    }

    // --- Phase 2: hill-climbing refinement on the proxy score. ---
    val size = new Array[Int](n + 1)
    comm.foreach(size(_) += 1)
    val map = new IntDoubleMap(n)
    var pass = 0
    while (pass < RefinePasses) {
      var moved = false
      var v = 0
      while (v < n) {
        map.clear()
        var i = g.offsets(v)
        while (i < g.offsets(v + 1)) { map.addTo(comm(g.nbrs(i)), 1.0); i += 1 }
        val cur     = comm(v)
        val eCur    = map.getOrElse(cur, 0.0)
        var bestS   = score(eCur, size(cur) - 1) // own community without v
        var bestC   = cur
        var e = 0
        while (e < map.size) {
          val c = map.keyAt(e)
          if (c != cur) {
            val s = score(map.valueAt(e), size(c))
            if (s > bestS + 1e-12) { bestS = s; bestC = c }
          }
          e += 1
        }
        if (bestC != cur) {
          comm(v) = bestC
          size(cur) -= 1; size(bestC) += 1
          moved = true
        }
        v += 1
      }
      pass += 1
      if (!moved) pass = RefinePasses
    }
    repro.core.Objective.normalize(comm)
  }

  /** Normalized-density proxy for SCD's WCC gain: e(v,C)/√(|C|+1). */
  @inline private def score(edges: Double, commSize: Int): Double =
    if (edges <= 0) 0.0 else edges / math.sqrt(commSize.toDouble + 1)
}
