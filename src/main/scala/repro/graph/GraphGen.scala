package repro.graph

import java.util.SplittableRandom
import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}

/** Deterministic graph generators for the reproduction.
  *
  * The paper evaluates on SNAP graphs (amazon…friendster) with SNAP's
  * top-5000 ground-truth communities, plus rMAT graphs for scaling. The SNAP
  * data is unavailable offline, so `sbm*` generates planted-partition
  * stand-ins with ground-truth communities at container scale (see DESIGN.md
  * §3 for the substitution argument); `rmat` follows the paper's parameters
  * (a=0.5, b=c=0.1, d=0.3).
  */
object GraphGen {

  /** A graph plus its planted ground-truth communities (for precision/recall
    * and ARI/NMI). `membership(v)` is v's community; `communities(i)` lists
    * the members of community i, sorted descending by size.
    */
  final case class GroundTruthGraph(
      graph: LocalGraph,
      membership: Array[Int],
      communities: IndexedSeq[Array[Int]],
  )

  // ---------------------------------------------------------------- rMAT ----

  /** rMAT generator with the paper's parameters. Duplicate edges are merged
    * (weight 1 retained — unweighted semantics), self-loops dropped.
    */
  def rmat(scale: Int, numEdges: Long, seed: Long = 7): LocalGraph = {
    val n   = 1 << scale
    val rng = new SplittableRandom(seed)
    val a   = 0.5; val b = 0.1; val c = 0.1 // quadrant probabilities; d = 1 − a − b − c
    val ab  = a + b
    val abc = a + b + c
    val edges = new ArrayBuilder.ofLong
    var e = 0L
    while (e < numEdges) {
      var u = 0; var v = 0; var bit = 1 << (scale - 1)
      while (bit > 0) {
        val r = rng.nextDouble()
        if (r < a) {} // top-left
        else if (r < ab) v |= bit
        else if (r < abc) u |= bit
        else { u |= bit; v |= bit }
        bit >>= 1
      }
      if (u != v) edges += pair(u, v)
      e += 1
    }
    simpleGraph(n, edges.result())
  }

  /** Pack the unordered pair {u, v} as min<<32 | max (ids are non-negative). */
  private def pair(u: Int, v: Int): Long =
    math.min(u, v).toLong << 32 | math.max(u, v)

  /** Unweighted simple graph on the distinct packed pairs in `pairs`: duplicates
    * collapse to one weight-1 edge. Sorts `pairs` in place.
    */
  private def simpleGraph(n: Int, pairs: Array[Long]): LocalGraph = {
    java.util.Arrays.sort(pairs)
    var m = 0
    for (i <- pairs.indices) if (i == 0 || pairs(i) != pairs(i - 1)) { pairs(m) = pairs(i); m += 1 }
    val src = Array.tabulate(m)(i => (pairs(i) >>> 32).toInt)
    val dst = Array.tabulate(m)(i => pairs(i).toInt)
    LocalGraph.fromEdgeArrays(n, src, dst, Array.fill(m)(1.0))
  }

  // ------------------------------------------------- planted partition -----

  /** Planted-partition (SBM-flavoured) graph: communities with sizes drawn
    * log-uniformly from [minSize, maxSize]; each vertex draws ~`dIn` internal
    * and ~`dOut` external half-edges. Optionally `hubs` high-degree vertices
    * each attach to `hubDegree` random vertices (twitter-style skew).
    */
  def sbm(n: Int, minSize: Int, maxSize: Int, dIn: Double, dOut: Double,
          seed: Long = 11, hubs: Int = 0, hubDegree: Int = 0): GroundTruthGraph = {
    val rng        = new SplittableRandom(seed)
    val membership = new Array[Int](n)
    val commBounds = ArrayBuffer.empty[(Int, Int)] // [start, end)
    var start = 0; var cid = 0
    while (start < n) {
      val logMin = math.log(minSize.toDouble)
      val logMax = math.log(maxSize.toDouble)
      val size0  = math.exp(logMin + rng.nextDouble() * (logMax - logMin)).toInt.max(minSize)
      val size   = math.min(size0, n - start)
      commBounds += ((start, start + size))
      var v = start
      while (v < start + size) { membership(v) = cid; v += 1 }
      start += size; cid += 1
    }
    val edges = new ArrayBuilder.ofLong
    // internal half-edges
    var v = 0
    while (v < n) {
      val (lo, hi) = commBounds(membership(v))
      val size     = hi - lo
      if (size > 1) {
        val draws = poissonish(rng, dIn / 2) // each undirected edge drawn from both sides on avg
        var i = 0
        while (i < draws) {
          val u = lo + rng.nextInt(size)
          if (u != v) edges += pair(v, u)
          i += 1
        }
      }
      v += 1
    }
    // external half-edges
    v = 0
    while (v < n) {
      val draws = poissonish(rng, dOut / 2)
      var i = 0
      while (i < draws) {
        val u = rng.nextInt(n)
        if (u != v) edges += pair(v, u)
        i += 1
      }
      v += 1
    }
    // hub overlay
    var h = 0
    while (h < hubs) {
      val hub = rng.nextInt(n)
      var i = 0
      while (i < hubDegree) {
        val u = rng.nextInt(n)
        if (u != hub) edges += pair(hub, u)
        i += 1
      }
      h += 1
    }
    val g = simpleGraph(n, edges.result())
    val comms = commBounds.zipWithIndex
      .map { case ((lo, hi), _) => Array.range(lo, hi) }
      .sortBy(-_.length)
      .toIndexedSeq
    GroundTruthGraph(g, membership, comms)
  }

  /** Integer draw with mean `mean` (rounded stochastic — Poisson-ish without
    * the exact distribution; only the expected degree matters here).
    */
  private def poissonish(rng: SplittableRandom, mean: Double): Int = {
    val base = mean.toInt
    base + (if (rng.nextDouble() < mean - base) 1 else 0)
  }

  // ------------------------------------------------------------- presets ---

  /** SNAP stand-ins (DESIGN.md §3). Keyed by the paper's graph names. */
  def preset(name: String, seed: Long = 11): GroundTruthGraph = name match {
    case "amazon-lite"     => sbm(n = 40_000, minSize = 5, maxSize = 60, dIn = 6, dOut = 1.5, seed = seed)
    case "dblp-lite"       => sbm(n = 40_000, minSize = 5, maxSize = 100, dIn = 6, dOut = 2, seed = seed + 1)
    case "lj-lite"         => sbm(n = 80_000, minSize = 10, maxSize = 300, dIn = 8, dOut = 3, seed = seed + 2)
    case "orkut-lite"      => sbm(n = 80_000, minSize = 20, maxSize = 500, dIn = 14, dOut = 6, seed = seed + 3)
    case "twitter-lite"    => sbm(n = 100_000, minSize = 1000, maxSize = 30_000, dIn = 12, dOut = 4,
                                  seed = seed + 4, hubs = 20, hubDegree = 5000)
    case "friendster-lite" => sbm(n = 120_000, minSize = 5, maxSize = 50, dIn = 10, dOut = 4, seed = seed + 5)
    case other             => throw new IllegalArgumentException(s"unknown preset: $other")
  }

  /** Smaller variants of the same presets for unit tests. */
  def presetSmall(name: String, seed: Long = 11): GroundTruthGraph = name match {
    case "amazon-lite" => sbm(n = 2000, minSize = 5, maxSize = 60, dIn = 6, dOut = 1.5, seed = seed)
    case "orkut-lite"  => sbm(n = 2000, minSize = 20, maxSize = 200, dIn = 14, dOut = 6, seed = seed + 3)
    case other         => throw new IllegalArgumentException(s"unknown small preset: $other")
  }

  // ------------------------------------------------------------ fixtures ---

  /** Zachary's karate club (34 vertices, 78 edges) — the graph on which the
    * paper times the LAMBDACC MATLAB baseline.
    */
  def karate: LocalGraph = {
    val raw = Seq(
      (2,1),(3,1),(3,2),(4,1),(4,2),(4,3),(5,1),(6,1),(7,1),(7,5),(7,6),(8,1),(8,2),(8,3),(8,4),
      (9,1),(9,3),(10,3),(11,1),(11,5),(11,6),(12,1),(13,1),(13,4),(14,1),(14,2),(14,3),(14,4),
      (17,6),(17,7),(18,1),(18,2),(20,1),(20,2),(22,1),(22,2),(26,24),(26,25),(28,3),(28,24),
      (28,25),(29,3),(30,24),(30,27),(31,2),(31,9),(32,1),(32,25),(32,26),(32,29),(33,3),(33,9),
      (33,15),(33,16),(33,19),(33,21),(33,23),(33,24),(33,30),(33,31),(33,32),(34,9),(34,10),
      (34,14),(34,15),(34,16),(34,19),(34,20),(34,21),(34,23),(34,24),(34,27),(34,28),(34,29),
      (34,30),(34,31),(34,32),(34,33),
    )
    LocalGraph.fromUnweightedEdges(34, raw.map { case (u, v) => (u - 1, v - 1) })
  }

  /** Star graph with `leaves` leaves, each leaf tied to center 0 by `w`. */
  def star(leaves: Int, w: Double = 1.0): LocalGraph =
    LocalGraph.fromEdges(leaves + 1, (1 to leaves).map(l => (0, l, w)))
}
