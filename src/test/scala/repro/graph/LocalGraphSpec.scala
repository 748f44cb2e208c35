package repro.graph

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers
import repro.TestGraphs
import repro.util.Parallel

class LocalGraphSpec extends AnyFunSuite with Matchers {

  test("builds a triangle with symmetric adjacency") {
    val g = LocalGraph.fromUnweightedEdges(3, Seq((0, 1), (1, 2), (0, 2)))
    g.numVertices shouldBe 3
    g.numEdges shouldBe 3
    (0 until 3).foreach(v => g.degree(v) shouldBe 2)
    g.totalEdgeWeight shouldBe 3.0 +- 1e-12
  }

  test("duplicate edges are combined by summing weights") {
    val g = LocalGraph.fromEdges(2, Seq((0, 1, 1.0), (1, 0, 2.5)))
    g.numEdges shouldBe 1
    g.wgts(g.offsets(0)) shouldBe 3.5 +- 1e-12
    g.totalEdgeWeight shouldBe 3.5 +- 1e-12
  }

  test("input self-loops go to selfLoop, not adjacency") {
    val g = LocalGraph.fromEdges(2, Seq((0, 0, 4.0), (0, 1, 1.0)))
    g.degree(0) shouldBe 1
    g.selfLoop(0) shouldBe 4.0 +- 1e-12
    g.totalEdgeWeight shouldBe 5.0 +- 1e-12
  }

  test("default vertex weights are 1 with sq=1") {
    val g = LocalGraph.fromUnweightedEdges(4, Seq((0, 1), (2, 3)))
    g.vertexWeight.toSeq shouldBe Seq(1.0, 1.0, 1.0, 1.0)
    g.sqWeight.toSeq shouldBe Seq(1.0, 1.0, 1.0, 1.0)
  }

  test("withDegreeWeights sets k to weighted degree") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1, 2.0), (1, 2, 3.0)))
    val gd = g.withDegreeWeights
    gd.vertexWeight.toSeq shouldBe Seq(2.0, 5.0, 3.0)
    gd.sqWeight.toSeq shouldBe Seq(4.0, 25.0, 9.0)
  }

  test("weightedDegree sums incident weights") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1, 2.0), (0, 2, 0.5)))
    g.weightedDegree(0) shouldBe 2.5 +- 1e-12
    g.weightedDegree(1) shouldBe 2.0 +- 1e-12
  }

  test("undirectedEdges round-trips through fromEdges") {
    val edges = Seq((0, 3, 1.5), (1, 2, 2.0), (0, 1, 0.25))
    val g     = LocalGraph.fromEdges(4, edges)
    g.undirectedEdges.sorted shouldBe edges.map { case (u, v, w) => (u, v, w) }.sorted
  }

  test("isolated vertices have degree zero") {
    val g = LocalGraph.fromUnweightedEdges(5, Seq((0, 1)))
    g.degree(4) shouldBe 0
    g.numEdges shouldBe 1
  }

  test("edge out of range is rejected") {
    an[IllegalArgumentException] should be thrownBy
      LocalGraph.fromUnweightedEdges(2, Seq((0, 2)))
  }

  test("non-finite weights are rejected") {
    for (w <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity))
      an[IllegalArgumentException] should be thrownBy
        LocalGraph.fromEdgeArrays(2, Array(0), Array(1), Array(w))
  }

  test("a negative vertex count is rejected") {
    an[IllegalArgumentException] should be thrownBy
      LocalGraph.fromEdgeArrays(-1, Array.empty[Int], Array.empty[Int], Array.empty[Double])
  }

  test("scrambled input builds canonical rows with input-order duplicate sums") {
    val edges = Seq((0, 3, 0.1), (2, 1, 1.5), (3, 0, 0.2), (5, 0, 0.7), (1, 0, 0.25), (2, 2, 4.0),
                    (0, 3, 0.3), (4, 2, 2.0), (1, 2, 0.5), (2, 2, 0.5), (5, 3, 1.0), (3, 4, 0.125))
    // {0,3} sums to a different double in another order, so the order is observable.
    (0.1 + 0.2 + 0.3) should not equal (0.3 + 0.2 + 0.1)
    val g = LocalGraph.fromEdges(6, edges)
    for (v <- 0 until 6) {
      val row           = g.nbrs.slice(g.offsets(v), g.offsets(v + 1)).toSeq
      val (high, lower) = row.span(_ > v)
      high shouldBe high.sorted.distinct
      lower shouldBe lower.sorted.distinct
      lower.forall(_ < v) shouldBe true
    }
    def weight(u: Int, v: Int): Double = {
      val i = g.nbrs.indexWhere(_ == v, g.offsets(u))
      i should (be >= 0 and be < g.offsets(u + 1))
      g.wgts(i)
    }
    val pairs = edges.collect { case (u, v, w) if u != v => ((math.min(u, v), math.max(u, v)), w) }
    for ((key @ (a, b), ws) <- pairs.groupMap(_._1)(_._2)) {
      val sum = ws.reduceLeft(_ + _)
      withClue(key) {
        java.lang.Double.doubleToLongBits(weight(a, b)) shouldBe java.lang.Double.doubleToLongBits(sum)
        java.lang.Double.doubleToLongBits(weight(b, a)) shouldBe java.lang.Double.doubleToLongBits(sum)
      }
    }
    g.numEdges shouldBe pairs.map(_._1).distinct.size
    g.selfLoop.toSeq shouldBe Seq(0.0, 0.0, 4.5, 0.0, 0.0, 0.0)
  }

  test("fromUpper lays out identical arrays at 1, 2, 3 and 8 threads") {
    // Higher parts in scrambled order with unused slots after each, as
    // Compress leaves them; isolated vertices with empty rows; and a top-id
    // hub that every third vertex points to, so each block mirrors into it.
    val n   = 3000; val hub = n - 1
    val rng = new java.util.SplittableRandom(11)
    def isolated(v: Int) = v % 11 == 5
    val rows = Array.tabulate(n) { v =>
      if (isolated(v) || v == hub) Array.empty[Int]
      else {
        val others = Array.fill(rng.nextInt(6))(v + 1 + rng.nextInt(n - 1 - v)).filter(u => u != hub && !isolated(u))
        val withHub = if (v % 3 == 0) others :+ hub else others
        new scala.util.Random(v).shuffle(withHub.distinct.toSeq).toArray
      }
    }
    val from = new Array[Int](n + 1); val to = new Array[Int](n)
    for (v <- 0 until n) { to(v) = from(v) + rows(v).length; from(v + 1) = to(v) + rng.nextInt(3) }
    val up = new Array[Int](from(n)); val upW = new Array[Double](from(n))
    for (v <- 0 until n; (u, j) <- rows(v).zipWithIndex) { up(from(v) + j) = u; upW(from(v) + j) = rng.nextDouble() + 1e-3 }
    val k = Array.fill(n)(1.0)
    def build(threads: Int) = LocalGraph.fromUpper(n, from, to, up, upW, k, new Array[Double](n), k, threads)
    val one = build(1)
    TestGraphs.assertWellFormed(one)
    one.degree(hub) shouldBe (0 until hub by 3).count(v => !isolated(v))
    for (v <- 0 until n if isolated(v)) one.degree(v) shouldBe 0
    for (threads <- Seq(2, 3, 8)) {
      Parallel.blocks(from, n, threads).length - 1 should be > threads
      val g = build(threads)
      java.util.Arrays.equals(g.offsets, one.offsets) shouldBe true
      java.util.Arrays.equals(g.nbrs, one.nbrs) shouldBe true
      java.util.Arrays.equals(g.wgts, one.wgts) shouldBe true
    }
  }

  test("sizeInBytes accounts CSR arrays") {
    val g = LocalGraph.fromUnweightedEdges(3, Seq((0, 1), (1, 2)))
    // offsets 4*(n+1) + nbrs 4*2m + wgts 8*2m + k/selfLoop/sq 8n each
    g.sizeInBytes shouldBe (4L * 4 + 4L * 4 + 8L * 4 + 3 * 8L * 3)
  }
}
