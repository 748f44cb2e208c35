package repro.graph

import repro.util.Parallel
import scala.collection.mutable.ArrayBuilder

/** Immutable CSR representation of an undirected weighted graph, possibly a
  * *compressed* (coarsened) graph in which each vertex stands for a cluster of
  * original vertices.
  *
  * Every undirected edge {u,v}, u≠v, appears twice in the adjacency
  * (u→v and v→u) with bitwise-equal weights. Self-loops are NOT stored as
  * adjacency entries; intra-super-vertex weight accumulated by coarsening
  * lives in `selfLoop` so the exact CC objective is computable at any level.
  * Every row reads [higher neighbours | lower neighbours ascending], and
  * [[LocalGraph.fromUpper]] is the one place rows are laid out. The input
  * builders below give it each higher part ascending; `Compress.compress`
  * gives it in first-appearance order over the cluster's members.
  *
  * @param vertexWeight  k_v of the LambdaCC objective (1 for CC, degree for
  *                      modularity, sum of constituents after coarsening)
  * @param selfLoop      total original edge weight contracted inside v
  * @param sqWeight      Σ of original k² contained in v (exact negative term)
  */
final class LocalGraph(
    val numVertices: Int,
    val offsets: Array[Int],
    val nbrs: Array[Int],
    val wgts: Array[Double],
    val vertexWeight: Array[Double],
    val selfLoop: Array[Double],
    val sqWeight: Array[Double],
) {
  require(offsets.length == numVertices + 1, "offsets must have n+1 entries")
  require(nbrs.length == offsets(numVertices), "nbrs length must equal offsets(n)")

  /** Number of undirected edges. */
  def numEdges: Long = nbrs.length / 2L

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  /** Σ of incident edge weights (no self-loop contribution). */
  def weightedDegree(v: Int): Double = {
    var s = 0.0; var i = offsets(v)
    while (i < offsets(v + 1)) { s += wgts(i); i += 1 }
    s
  }

  /** Total undirected edge weight, self-loops included. */
  def totalEdgeWeight: Double = {
    var s = 0.0; var i = 0
    while (i < wgts.length) { s += wgts(i); i += 1 }
    var v = 0; var sl = 0.0
    while (v < numVertices) { sl += selfLoop(v); v += 1 }
    s / 2 + sl
  }

  /** Copy with different vertex weights (k² tracked accordingly).
    * Used to switch the same topology between CC (k=1) and modularity (k=deg).
    */
  def withVertexWeights(k: Array[Double]): LocalGraph = {
    require(k.length == numVertices)
    val sq = new Array[Double](numVertices)
    var v = 0
    while (v < numVertices) { sq(v) = k(v) * k(v); v += 1 }
    new LocalGraph(numVertices, offsets, nbrs, wgts, k, selfLoop, sq)
  }

  /** Modularity-style weights: k_v = weighted degree + 2·selfLoop. */
  def withDegreeWeights: LocalGraph = {
    val k = new Array[Double](numVertices)
    var v = 0
    while (v < numVertices) { k(v) = weightedDegree(v) + 2 * selfLoop(v); v += 1 }
    withVertexWeights(k)
  }

  /** The same rows with every edge weight 1.0 and no self-loops (k kept). */
  def unweighted: LocalGraph = {
    val ones = new Array[Double](wgts.length); java.util.Arrays.fill(ones, 1.0)
    new LocalGraph(numVertices, offsets, nbrs, ones, vertexWeight, new Array[Double](numVertices), sqWeight)
  }

  /** Estimated retained bytes of the CSR arrays (paper's Fig-8 denominator is
    * CSR bytes; we account both sides of the comparison the same way).
    */
  def sizeInBytes: Long =
    4L * offsets.length + 4L * nbrs.length + 8L * wgts.length +
      8L * vertexWeight.length + 8L * selfLoop.length + 8L * sqWeight.length

  /** Undirected edge list (u < v), for Spark interop and tests. */
  def undirectedEdges: Seq[(Int, Int, Double)] = {
    val buf = Seq.newBuilder[(Int, Int, Double)]
    var u = 0
    while (u < numVertices) {
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val v = nbrs(i)
        if (u < v) buf += ((u, v, wgts(i)))
        i += 1
      }
      u += 1
    }
    buf.result()
  }
}

object LocalGraph {

  /** Build from an undirected edge list; duplicate {u,v} pairs are combined by
    * summing weights; self-loops in the input are accumulated into `selfLoop`.
    * Vertex weights default to 1 (the CC objective's default k).
    */
  def fromEdges(numVertices: Int, edges: IterableOnce[(Int, Int, Double)]): LocalGraph = {
    val src = new ArrayBuilder.ofInt; val dst = new ArrayBuilder.ofInt; val wgt = new ArrayBuilder.ofDouble
    val it   = edges.iterator
    val size = it.knownSize
    if (size > 0) { src.sizeHint(size); dst.sizeHint(size); wgt.sizeHint(size) }
    it.foreach { case (u, v, w) => src.addOne(u); dst.addOne(v); wgt.addOne(w) }
    fromEdgeArrays(numVertices, src.result(), dst.result(), wgt.result())
  }

  /** Primitive form of [[fromEdges]]: edge e is {src(e), dst(e)} with weight
    * wgt(e), which must be finite. The one place pairs are sorted and merged:
    * self-loops go to `selfLoop`; the other edges are stable counting-sorted
    * by (min, max), so the copies of a pair sum in input order, and each
    * vertex's distinct higher neighbours, ascending, go to [[fromUpper]].
    */
  def fromEdgeArrays(numVertices: Int, src: Array[Int], dst: Array[Int],
                     wgt: Array[Double]): LocalGraph = {
    val n = numVertices
    val m = src.length
    require(n >= 0, s"numVertices must be non-negative, got $n")
    require(m == dst.length && dst.length == wgt.length, "edge arrays differ in length")
    val selfLoop = new Array[Double](n)
    // byMax(b + 1) / byMin(a + 1): the edges whose larger / smaller end is b / a.
    val byMax = new Array[Int](n + 1); val byMin = new Array[Int](n + 1)
    var e = 0
    while (e < m) {
      val u = src(e); val v = dst(e); val w = wgt(e)
      if (u < 0 || u >= n || v < 0 || v >= n)
        throw new IllegalArgumentException(s"requirement failed: edge ($u,$v) out of range")
      if (!java.lang.Double.isFinite(w))
        throw new IllegalArgumentException(s"requirement failed: edge ($u,$v) has weight $w")
      if (u == v) selfLoop(u) += w else { byMax(math.max(u, v) + 1) += 1; byMin(math.min(u, v) + 1) += 1 }
      e += 1
    }
    var v = 0
    while (v < n) { byMax(v + 1) += byMax(v); byMin(v + 1) += byMin(v); v += 1 }

    // Stable scatter by max, then by min. The copies of {a, b}, a < b, reach a's
    // list one after another while bucket b is read, so a copy that finds b at
    // the end of that list adds to its weight: up(byMin(a) until pos(a)) holds
    // a's distinct higher neighbours ascending, each summed in input order.
    val k   = byMin(n)
    val lo  = new Array[Int](k); val loW = new Array[Double](k)
    val pos = java.util.Arrays.copyOf(byMax, n)
    e = 0
    while (e < m) {
      val u = src(e); val v = dst(e)
      if (u != v) {
        val top = math.max(u, v); val p = pos(top)
        lo(p) = math.min(u, v); loW(p) = wgt(e); pos(top) = p + 1
      }
      e += 1
    }
    val up = new Array[Int](k); val upW = new Array[Double](k)
    System.arraycopy(byMin, 0, pos, 0, n)
    var i = 0; var b = 0
    while (b < n) {
      while (i < byMax(b + 1)) {
        val a = lo(i); val p = pos(a)
        if (p > byMin(a) && up(p - 1) == b) upW(p - 1) += loW(i)
        else { up(p) = b; upW(p) = loW(i); pos(a) = p + 1 }
        i += 1
      }
      b += 1
    }
    val ones = new Array[Double](n); java.util.Arrays.fill(ones, 1.0)
    fromUpper(n, byMin, pos, up, upW, ones, selfLoop, ones.clone())
  }

  /** The one place rows are laid out: the symmetric CSR whose vertex v has the
    * higher neighbours `up(from(v) until to(v))`, weights `upW`. Row v reads
    * [those entries, in the caller's order | v's lower neighbours ascending].
    * Higher first: moves take the first of equally scored targets in adjacency
    * order, and rows that open with the lowest ids skew those ties (DESIGN §5).
    *
    * `from` is nondecreasing with n + 1 entries and to(v) ≤ from(v + 1); it
    * splits the vertices into ascending blocks of about equal work
    * ([[repro.util.Parallel.blocks]]). Each block counts its entries per
    * destination in its own row of `lowerAt`; one pass over the vertices turns
    * the counts into each block's first slot in each lower part, and the
    * offsets; then each block copies its higher parts and mirrors them into
    * the lower parts. Both directions of a pair carry the same weight bits,
    * and the blocks fill each lower part in ascending order, so the arrays
    * are identical at every thread count. One thread makes one block.
    */
  private[repro] def fromUpper(n: Int, from: Array[Int], to: Array[Int], up: Array[Int], upW: Array[Double],
                                k: Array[Double], selfLoop: Array[Double], sq: Array[Double],
                                threads: Int = 1): LocalGraph = {
    val cuts    = Parallel.blocks(from, n, threads)
    val lowerAt = new Array[Array[Int]](cuts.length - 1) // lowerAt(b)(x): block b's next slot in x's row
    Parallel.forBlocks(cuts, threads) { (_, b) =>
      val cnt = new Array[Int](n); lowerAt(b) = cnt
      var v = cuts(b)
      while (v < cuts(b + 1)) {
        var i = from(v)
        while (i < to(v)) { cnt(up(i)) += 1; i += 1 }
        v += 1
      }
    }
    val offsets = new Array[Int](n + 1)
    var p = 0; var v = 0
    while (v < n) {
      p += to(v) - from(v)
      var b = 0
      while (b < lowerAt.length) { val row = lowerAt(b); val c = row(v); row(v) = p; p += c; b += 1 }
      offsets(v + 1) = p
      v += 1
    }
    val nbrs = new Array[Int](p); val wgts = new Array[Double](p)
    Parallel.forBlocks(cuts, threads) { (_, b) =>
      val next = lowerAt(b)
      var u = cuts(b)
      while (u < cuts(b + 1)) {
        var q = offsets(u); var i = from(u)
        while (i < to(u)) {
          val x = up(i); val w = upW(i); val s = next(x)
          nbrs(q) = x; wgts(q) = w; q += 1
          nbrs(s) = u; wgts(s) = w; next(x) = s + 1
          i += 1
        }
        u += 1
      }
    }
    new LocalGraph(n, offsets, nbrs, wgts, k, selfLoop, sq)
  }

  /** Build from unweighted undirected pairs. */
  def fromUnweightedEdges(numVertices: Int, edges: IterableOnce[(Int, Int)]): LocalGraph =
    fromEdges(numVertices, edges.iterator.map { case (u, v) => (u, v, 1.0) })
}
