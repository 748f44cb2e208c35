package repro.baselines

import repro.graph.{LocalGraph, Triangles, UnionFind}

/** TECTONIC (Tsourakakis et al., WWW'17) — the triangle-conductance community
  * detection baseline of the paper's §4.2/§4.3.
  *
  * Pipeline: (1) count triangles per edge and per vertex; (2) re-weight each
  * edge by its mixed triangle weight t(e)/(t(u)+t(v)); (3) keep edges with
  * weight ≥ θ; (4) output connected components of the kept edges. θ sweeps
  * (paper: θ ∈ {0.01x | x ∈ [1,299]}) trade precision against recall.
  */
object Tectonic {

  /** Cluster `g` at threshold `theta`; isolated vertices become singletons. */
  def cluster(g: LocalGraph, theta: Double): Array[Int] =
    clusterWithCounts(g, Triangles.count(g), theta)

  /** Variant reusing precomputed triangle counts (for θ sweeps). */
  def clusterWithCounts(g: LocalGraph, tc: Triangles.TriangleCounts,
                        theta: Double): Array[Int] = {
    val n  = g.numVertices
    val uf = new UnionFind(n)
    var u = 0
    while (u < n) {
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) {
        val v = g.nbrs(i)
        if (u < v) {
          val denom = tc.perVertex(u) + tc.perVertex(v)
          val w     = if (denom == 0) 0.0 else tc.perEdge(i).toDouble / denom
          if (w >= theta) uf.union(u, v)
        }
        i += 1
      }
      u += 1
    }
    uf.components
  }
}
