package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments._

/** spark-submit entrypoints, one per experiment table (DESIGN.md §4).
  *
  * Example:
  *   spark-submit --class repro.jobs.T4Speedup target/scala-2.13/repro_2.13-*.jar
  *
  * The shared-memory experiments run on the driver (the paper's algorithms
  * are shared-memory); T16 exercises the GraphX dataflow port.
  */
object JobUtil {
  def sparkSession(name: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()
}

object T1GraphInputs {
  def main(args: Array[String]): Unit = ExpInputs.table().print()
}

object T2T3Optimizations {
  def main(args: Array[String]): Unit = {
    val r = ExpOptimizations.measure()
    ExpOptimizations.slowdownTable(r).print()
    ExpOptimizations.objectiveTable(r).print()
  }
}

object T4T5Speedup {
  def main(args: Array[String]): Unit = {
    val rows = ExpSpeedup.measure(BenchGraphs.standIns.map(_._2))
    ExpSpeedup.speedupTable(rows).print()
    ExpSpeedup.iterTable(rows).print()
    ExpSpeedup.convergenceTable(Seq("amazon-lite", "dblp-lite"), Seq(0.05, 0.5)).print()
  }
}

object T6RmatScaling {
  def main(args: Array[String]): Unit = ExpRmat.table().print()
}

object T7ThreadScaling {
  def main(args: Array[String]): Unit = ExpThreads.table().print()
}

object T8Memory {
  def main(args: Array[String]): Unit = ExpMemory.table().print()
}

object T9PrecisionRecall {
  def main(args: Array[String]): Unit = ExpQuality.table().print()
}

object T10Tectonic {
  def main(args: Array[String]): Unit = ExpTectonic.table().print()
}

object T11Networkit {
  def main(args: Array[String]): Unit = ExpNetworkit.table().print()
}

object T12Pivot {
  def main(args: Array[String]): Unit = ExpPivot.table().print()
}

object T13Scd {
  def main(args: Array[String]): Unit = ExpScd.table().print()
}

object T14Dense {
  def main(args: Array[String]): Unit = ExpDense.table().print()
}

object T15WeightedKnn {
  def main(args: Array[String]): Unit = ExpKnn.table().print()
}

object T16Dataflow {
  def main(args: Array[String]): Unit = {
    val spark = JobUtil.sparkSession("T16Dataflow")
    try ExpDataflow.table(spark).print()
    finally spark.stop()
  }
}
