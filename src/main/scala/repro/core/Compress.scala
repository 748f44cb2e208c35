package repro.core

import repro.graph.LocalGraph
import repro.util.{IntDoubleMap, Parallel}

/** Graph compression (PARALLEL-COMPRESS / SEQUENTIAL-COMPRESS) and cluster
  * flattening (paper §3.1 and appendix B).
  *
  * Compression contracts each cluster into one super-vertex: inter-cluster
  * edges are aggregated by (cluster(u), cluster(v)); intra-cluster weight and
  * pre-existing self-loops accumulate into the super-vertex's `selfLoop`;
  * vertex weights (and the Σk² bookkeeping) are summed. This preserves the CC
  * objective exactly: for any clustering C' of the compressed graph,
  * CC(flatten(C, C')) on G equals CC(C') on G'.
  */
object Compress {

  /** Compress `g` by `clusters`, which must be dense ids in [0, numClusters).
    *
    * Cluster-major kernel (GBBS-style contraction): vertices are counting-sorted
    * by cluster; each cluster aggregates its members' weights to higher
    * clusters in its worker's dense map, once to size the rows and once to
    * write them, and a transpose mirrors those entries into the lower rows.
    * Each pair is summed once, so both directions carry bitwise-equal weights
    * and the output is identical at every thread count.
    *
    * @param threads degree of parallelism only; 1 is the sequential variant.
    */
  def compress(g: LocalGraph, clusters: Array[Int], numClusters: Int,
               threads: Int = 1): LocalGraph = {
    require(clusters.length == g.numVertices)

    // Members of cluster c are members(start(c) until start(c + 1)), ascending.
    val start = new Array[Int](numClusters + 1)
    clusters.foreach(c => start(c + 1) += 1)
    for (c <- 0 until numClusters) start(c + 1) += start(c)
    val members = new Array[Int](clusters.length)
    val pos     = java.util.Arrays.copyOf(start, numClusters)
    for (v <- clusters.indices) { val c = clusters(v); members(pos(c)) = v; pos(c) += 1 }

    val kOut  = new Array[Double](numClusters)
    val sqOut = new Array[Double](numClusters)
    val slOut = new Array[Double](numClusters)
    val maps  = Array.fill(math.max(1, threads))(new IntDoubleMap(numClusters))
    val gOffs = g.offsets; val gNbrs = g.nbrs; val gWgts = g.wgts
    // c's weight to each higher cluster, in a fixed order; with `sums`, also c's
    // vertex-side totals and internal weight (each internal edge once, x < u).
    def gather(c: Int, sums: Boolean, map: IntDoubleMap): IntDoubleMap = {
      map.clear()
      var i = start(c)
      while (i < start(c + 1)) {
        val x = members(i)
        if (sums) { kOut(c) += g.vertexWeight(x); sqOut(c) += g.sqWeight(x); slOut(c) += g.selfLoop(x) }
        var j = gOffs(x)
        val end = gOffs(x + 1)
        while (j < end) {
          val u = gNbrs(j); val b = clusters(u)
          if (b > c) map.addTo(b, gWgts(j))
          else if (sums && b == c && x < u) slOut(c) += gWgts(j)
          j += 1
        }
        i += 1
      }
      map
    }

    // Count pass: entries c→b above the diagonal; each is one of b's lower entries.
    val low     = new java.util.concurrent.atomic.AtomicIntegerArray(numClusters)
    val offsets = new Array[Int](numClusters + 1)
    Parallel.forWorkers(numClusters, threads) { (w, c) =>
      val map = gather(c, sums = true, maps(w))
      var e = 0
      while (e < map.size) { low.incrementAndGet(map.keyAt(e)); e += 1 }
      offsets(c + 1) = map.size
    }
    for (c <- 0 until numClusters) offsets(c + 1) += offsets(c) + low.get(c)

    // Fill pass: row c holds [entries to higher clusters | entries to lower ones].
    // Higher first: moves take the first of equal-score targets in adjacency
    // order, and rows that open with the lowest ids skew those ties (DESIGN §5).
    val m2   = offsets(numClusters)
    val nbrs = new Array[Int](m2); val wgts = new Array[Double](m2)
    Parallel.forWorkers(numClusters, threads) { (w, c) =>
      val map = gather(c, sums = false, maps(w))
      val p = offsets(c); var e = 0
      while (e < map.size) { nbrs(p + e) = map.keyAt(e); wgts(p + e) = map.valueAt(e); e += 1 }
    }

    // Mirror: scanning c upwards fills each row's lower part in ascending order.
    for (c <- 0 until numClusters) pos(c) = offsets(c + 1) - low.get(c)
    for (c <- 0 until numClusters) {
      var p = offsets(c); val end = offsets(c + 1) - low.get(c)
      while (p < end) { val b = nbrs(p); nbrs(pos(b)) = c; wgts(pos(b)) = wgts(p); pos(b) += 1; p += 1 }
    }
    new LocalGraph(numClusters, offsets, nbrs, wgts, kOut, slOut, sqOut)
  }

  /** PARALLEL-FLATTEN: compose clustering `dense` of level-l vertices with the
    * clustering `comp` of the compressed graph's vertices.
    */
  def flatten(dense: Array[Int], comp: Array[Int], threads: Int = 1): Array[Int] = {
    val out = new Array[Int](dense.length)
    Parallel.forRange(dense.length, threads)(v => out(v) = comp(dense(v)))
    out
  }
}
