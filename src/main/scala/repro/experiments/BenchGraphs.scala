package repro.experiments

import repro.graph.GraphGen
import repro.graph.GraphGen.GroundTruthGraph

/** Lazily-built, JVM-cached bench inputs — the SNAP stand-ins of DESIGN.md §3.
  * Generation is deterministic, so every bench in a run sees identical data.
  */
object BenchGraphs {

  val paperSizes: Map[String, (Long, Long)] = Map(
    "amazon"     -> (334863L, 925872L),
    "dblp"       -> (317080L, 1049866L),
    "livejournal"-> (3997962L, 34681189L),
    "orkut"      -> (3072441L, 117185083L),
    "twitter"    -> (41652231L, 1202513046L),
    "friendster" -> (65608366L, 1806067135L),
  )

  /** name (paper) -> stand-in preset name */
  val standIns: Seq[(String, String)] = Seq(
    "amazon"      -> "amazon-lite",
    "dblp"        -> "dblp-lite",
    "livejournal" -> "lj-lite",
    "orkut"       -> "orkut-lite",
    "twitter"     -> "twitter-lite",
    "friendster"  -> "friendster-lite",
  )

  private val cache = new java.util.concurrent.ConcurrentHashMap[String, GroundTruthGraph]()

  def apply(presetName: String): GroundTruthGraph =
    cache.computeIfAbsent(presetName, GraphGen.preset(_))

  /** The paper's §4.1 tuning set. */
  val tuningSet: Seq[String] = Seq("amazon-lite", "orkut-lite", "twitter-lite", "friendster-lite")

  /** The two resolutions the §4.1 tuning study sweeps (T2, T6, T7, T8). */
  val tuningLambdas: Seq[Double] = Seq(0.01, 0.85)

  /** A larger rMAT input (~2.5M edges) for thread-scaling headroom — at the
    * SBM stand-ins' sub-second runtimes, fixed costs bound the speedup.
    */
  lazy val rmatLarge: repro.graph.LocalGraph =
    repro.graph.GraphGen.rmat(scale = 18, numEdges = 3_000_000L, seed = 99)

  /** The paper's §4.3 ground-truth quality set. */
  val qualitySet: Seq[String] = Seq("amazon-lite", "dblp-lite", "lj-lite", "orkut-lite")
}
