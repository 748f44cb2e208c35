package repro.graph

import repro.util.Parallel

/** Exact triangle counting per edge and per vertex on a LocalGraph, via
  * sorted-adjacency intersection (work O(Σ_e min(d_u, d_v))). Used by the
  * TECTONIC and SCD baselines (both cluster on triangle structure).
  */
object Triangles {

  /** @param perEdge   triangle count for each directed adjacency slot i
    *                  (i.e. aligned with `g.nbrs`; both directions get the
    *                  same value)
    * @param perVertex triangles incident to each vertex
    */
  final case class TriangleCounts(perEdge: Array[Int], perVertex: Array[Long])

  def count(g: LocalGraph, threads: Int = Parallel.defaultThreads): TriangleCounts = {
    val n = g.numVertices
    // Sort each adjacency list (CSR from LocalGraph is not sorted).
    val sortedNbrs = g.nbrs.clone()
    val order      = new Array[Int](g.nbrs.length) // position of sorted slot in original CSR
    Parallel.forRange(n, threads) { v =>
      val lo = g.offsets(v); val hi = g.offsets(v + 1)
      val idx = Array.range(lo, hi).sortBy(g.nbrs)
      var i = lo
      while (i < hi) {
        sortedNbrs(i) = g.nbrs(idx(i - lo))
        order(i) = idx(i - lo)
        i += 1
      }
    }
    // Each u < v pair is intersected once; its count goes to the u→v slot and
    // to the v→u slot, found by binary search in v's sorted row (CSR rows hold
    // no duplicates). Every slot therefore has exactly one writer.
    val perEdge   = new Array[Int](g.nbrs.length)
    val perVertex = new Array[Long](n)
    Parallel.forRange(n, threads) { u =>
      var i = g.offsets(u)
      while (i < g.offsets(u + 1)) {
        val v = sortedNbrs(i)
        if (u < v) {
          // |N(u) ∩ N(v)| via sorted merge
          var a = g.offsets(u); var b = g.offsets(v); var t = 0
          val aHi = g.offsets(u + 1); val bHi = g.offsets(v + 1)
          while (a < aHi && b < bHi) {
            val x = sortedNbrs(a); val y = sortedNbrs(b)
            if (x == y) { t += 1; a += 1; b += 1 }
            else if (x < y) a += 1
            else b += 1
          }
          perEdge(order(i)) = t
          perEdge(order(java.util.Arrays.binarySearch(sortedNbrs, g.offsets(v), bHi, u))) = t
        }
        i += 1
      }
    }
    var u = 0
    while (u < n) {
      var i = g.offsets(u); var s = 0L
      while (i < g.offsets(u + 1)) { s += perEdge(i); i += 1 }
      perVertex(u) = s / 2 // each incident triangle is seen via two of its edges
      u += 1
    }
    TriangleCounts(perEdge, perVertex)
  }

  /** Local clustering coefficient of each vertex. */
  def clusteringCoefficients(g: LocalGraph, tc: TriangleCounts): Array[Double] =
    Array.tabulate(g.numVertices) { v =>
      val d = g.degree(v)
      if (d < 2) 0.0 else 2.0 * tc.perVertex(v) / (d.toDouble * (d - 1))
    }
}

/** Array-based union–find with path halving; used for the connected-component
  * step of TECTONIC (components of the thresholded triangle-weight graph).
  */
final class UnionFind(n: Int) {
  private val parent = Array.tabulate(n)(identity)

  def find(x0: Int): Int = {
    var x = x0
    while (parent(x) != x) { parent(x) = parent(parent(x)); x = parent(x) }
    x
  }

  def union(a: Int, b: Int): Unit = {
    val ra = find(a); val rb = find(b)
    if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
  }

  /** Dense component labels, numbered by each component's root, its least vertex. */
  def components: Array[Int] = {
    val label = new Array[Int](n); var next = 0
    for (v <- 0 until n) { val r = find(v); if (r < v) label(v) = label(r) else { label(v) = next; next += 1 } }
    label
  }
}
