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
    *
    * Each level draws `x = nextLong() >>> 11`, the 53-bit integer that
    * `nextDouble()` scales by 2^-53, and reads the quadrant from the sign bits
    * of x against the integer cuts of a, a+b and a+b+c. That picks the quadrant
    * `nextDouble()` compared with a, a+b and a+b+c would pick, with no
    * data-dependent branch to mispredict.
    */
  def rmat(scale: Int, numEdges: Long, seed: Long = 7): LocalGraph = {
    require(scale >= 1 && scale <= 30, s"rMAT scale must be in [1, 30], got $scale")
    require(numEdges >= 0 && numEdges <= MaxArrayLength,
            s"rMAT numEdges must be in [0, $MaxArrayLength], got $numEdges")
    val rng = new SplittableRandom(seed)
    val a   = 0.5; val b = 0.1; val c = 0.1 // quadrant probabilities; d = 1 − a − b − c
    // Each holds quadrantCut(p) − 1: x ≥ quadrantCut(p) ⇔ ((cut − x) >>> 63) == 1 for 0 ≤ x < 2^53.
    val cutA = quadrantCut(a) - 1; val cutAB = quadrantCut(a + b) - 1; val cutABC = quadrantCut(a + b + c) - 1
    val src = new Array[Int](numEdges.toInt); val dst = new Array[Int](numEdges.toInt)
    var e = 0
    while (e < src.length) {
      var u = 0; var v = 0; var level = 0
      while (level < scale) {
        val x     = rng.nextLong() >>> 11
        val geA   = ((cutA - x) >>> 63).toInt
        val geAB  = ((cutAB - x) >>> 63).toInt
        val geABC = ((cutABC - x) >>> 63).toInt
        // quadrant a: (0, 0); b: (0, 1); c: (1, 0); d: (1, 1)
        u = u << 1 | geAB
        v = v << 1 | (geA - geAB + geABC)
        level += 1
      }
      src(e) = u; dst(e) = v
      e += 1
    }
    simpleGraph(1 << scale, src, dst)
  }

  /** Longest array the JVM reliably allocates. */
  private val MaxArrayLength = Int.MaxValue - 8

  /** The least integer x with x·2^-53 ≥ p: a 53-bit draw x falls below the cut
    * exactly when `x * 2^-53 < p`, the test `nextDouble() < p` makes.
    */
  private[graph] def quadrantCut(p: Double): Long = math.ceil(p * (1L << 53)).toLong

  /** Unweighted simple graph on the pairs {src(e), dst(e)}: duplicates collapse
    * to one weight-1 edge and self-loops are dropped. The zero weights handed
    * to the builder are placeholders that `unweighted` replaces.
    */
  private def simpleGraph(n: Int, src: Array[Int], dst: Array[Int]): LocalGraph =
    LocalGraph.fromEdgeArrays(n, src, dst, new Array[Double](src.length)).unweighted

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
    val src = new ArrayBuilder.ofInt; val dst = new ArrayBuilder.ofInt
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
          src.addOne(v); dst.addOne(u)
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
        src.addOne(v); dst.addOne(u)
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
        src.addOne(hub); dst.addOne(u)
        i += 1
      }
      h += 1
    }
    val g     = simpleGraph(n, src.result(), dst.result())
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
}
