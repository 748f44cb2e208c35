package repro.experiments

import org.scalatest.funsuite.AnyFunSuite
import org.scalatest.matchers.should.Matchers

class TablesSpec extends AnyFunSuite with Matchers {

  test("table renders header, separator and aligned rows") {
    val t = Table("demo", Seq("a", "bb"), Seq(Seq("1", "2"), Seq("333", "4")))
    val lines = t.render.split("\n")
    lines.head shouldBe "== demo =="
    lines(1) should include("a")
    lines(1) should include("bb")
    lines(2) should fullyMatch regex """\|-+\|-+\|"""
    lines.length shouldBe 5
    // alignment: all rows same width
    lines.drop(1).map(_.length).distinct.length shouldBe 1
  }

  test("Timing.time returns value and non-negative seconds") {
    val (v, s) = Timing.time { Thread.sleep(5); 42 }
    v shouldBe 42
    s should be >= 0.004
  }

  test("Timing.median is robust to one slow run") {
    val t = Timing.median(5) { () }
    t should be >= 0.0
    t should be < 0.5
  }

  test("Timing.fmt formats by magnitude") {
    Timing.fmt(123.4) shouldBe "123"
    Timing.fmt(2.345) shouldBe "2.35"
    Timing.fmt(0.01234) shouldBe "0.0123"
  }
}

class BenchGraphsSpec extends AnyFunSuite with Matchers {

  test("every stand-in name resolves and is cached") {
    BenchGraphs.standIns.foreach { case (paper, preset) =>
      BenchGraphs.paperSizes.contains(paper) shouldBe true
      val g1 = BenchGraphs(preset)
      val g2 = BenchGraphs(preset)
      (g1 eq g2) shouldBe true // cached instance
    }
  }

  test("tuning and quality sets are subsets of the stand-ins") {
    val all = BenchGraphs.standIns.map(_._2).toSet
    BenchGraphs.tuningSet.toSet.subsetOf(all) shouldBe true
    BenchGraphs.qualitySet.toSet.subsetOf(all) shouldBe true
  }

  test("T1 table lists all six graphs with positive sizes") {
    val t = ExpInputs.table()
    t.rows.length shouldBe 6
    t.rows.foreach { r =>
      r(4).toLong should be > 0L
      r(5).toLong should be > 0L
      r(6).toLong should be > 0L
    }
  }

  test("twitter-lite stand-in carries the paper's hub skew") {
    val tw = BenchGraphs("twitter-lite").graph
    val fr = BenchGraphs("friendster-lite").graph
    // paper: twitter max degree 2,997,487 vs friendster 5,214
    def maxDegree(g: repro.graph.LocalGraph) = (0 until g.numVertices).map(g.degree).max
    maxDegree(tw) should be > 4 * maxDegree(fr)
  }
}
