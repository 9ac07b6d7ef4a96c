//! Workflows with inter-job dependencies, reduced to independent levels.
//!
//! §III of the paper: "Workloads with inter-task dependencies (often
//! expressed as a DAG) can be reduced to the independent task setting
//! through leveling techniques, in which sets of mutually independent
//! tasks of the DAG are organized into 'levels' within which independent
//! task set scheduling is then applied" (after Alhusaini et al.).
//!
//! [`JobDag::levels`] computes exactly that reduction; the `lips-core`
//! crate's `dag` module then schedules each level with any
//! `lips_sim::Scheduler`.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::job::{JobId, JobSpec};

/// A directed acyclic graph of jobs. An edge `(a, b)` means `b` may only
/// start after `a` completes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobDag {
    pub jobs: Vec<JobSpec>,
    pub edges: Vec<(JobId, JobId)>,
}

/// DAG construction/validation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// An edge references a job id not present in `jobs`.
    UnknownJob(JobId),
    /// The dependency graph contains a cycle through this job.
    Cycle(JobId),
    /// The same job id appears twice.
    DuplicateJob(JobId),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::UnknownJob(j) => write!(f, "edge references unknown job {j:?}"),
            DagError::Cycle(j) => write!(f, "dependency cycle through job {j:?}"),
            DagError::DuplicateJob(j) => write!(f, "duplicate job id {j:?}"),
        }
    }
}

impl std::error::Error for DagError {}

impl JobDag {
    /// Build and validate.
    pub fn new(jobs: Vec<JobSpec>, edges: Vec<(JobId, JobId)>) -> Result<Self, DagError> {
        let dag = JobDag { jobs, edges };
        dag.levels()?; // validates ids and acyclicity
        Ok(dag)
    }

    /// Kahn-style leveling: level 0 = jobs with no unmet dependencies;
    /// level k+1 = jobs whose dependencies all sit in levels ≤ k. Returns
    /// the levels as lists of job ids, each list in id order.
    pub fn levels(&self) -> Result<Vec<Vec<JobId>>, DagError> {
        let mut index: BTreeMap<JobId, usize> = BTreeMap::new();
        for (i, j) in self.jobs.iter().enumerate() {
            if index.insert(j.id, i).is_some() {
                return Err(DagError::DuplicateJob(j.id));
            }
        }
        let n = self.jobs.len();
        let mut indegree = vec![0usize; n];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &self.edges {
            let ia = *index.get(&a).ok_or(DagError::UnknownJob(a))?;
            let ib = *index.get(&b).ok_or(DagError::UnknownJob(b))?;
            out[ia].push(ib);
            indegree[ib] += 1;
        }
        let mut current: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut levels: Vec<Vec<JobId>> = Vec::new();
        let mut placed = 0usize;
        while !current.is_empty() {
            current.sort();
            levels.push(current.iter().map(|&i| self.jobs[i].id).collect());
            placed += current.len();
            let mut next = Vec::new();
            for &i in &current {
                for &succ in &out[i] {
                    indegree[succ] -= 1;
                    if indegree[succ] == 0 {
                        next.push(succ);
                    }
                }
            }
            current = next;
        }
        if placed != n {
            // Some job never reached indegree 0: it is on a cycle. When
            // `placed != n` at least one positive indegree remains, so the
            // fallback to job 0 is unreachable in practice.
            let stuck = (0..n).find(|&i| indegree[i] > 0).unwrap_or(0);
            return Err(DagError::Cycle(self.jobs[stuck].id));
        }
        Ok(levels)
    }

    /// Jobs of one level, cloned in level order.
    pub fn level_jobs(&self, level: &[JobId]) -> Vec<JobSpec> {
        let index: BTreeMap<JobId, usize> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (j.id, i))
            .collect();
        level
            .iter()
            .map(|id| self.jobs[index[id]].clone())
            .collect()
    }

    /// The critical-path length in levels.
    pub fn depth(&self) -> Result<usize, DagError> {
        Ok(self.levels()?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kind::JobKind;

    fn job(i: usize) -> JobSpec {
        JobSpec::new(i, format!("j{i}"), JobKind::Grep, 640.0, 10)
    }

    #[test]
    fn diamond_levels() {
        //    0
        //   / \
        //  1   2
        //   \ /
        //    3
        let dag = JobDag::new(
            (0..4).map(job).collect(),
            vec![
                (JobId(0), JobId(1)),
                (JobId(0), JobId(2)),
                (JobId(1), JobId(3)),
                (JobId(2), JobId(3)),
            ],
        )
        .unwrap();
        let levels = dag.levels().unwrap();
        assert_eq!(
            levels,
            vec![vec![JobId(0)], vec![JobId(1), JobId(2)], vec![JobId(3)]]
        );
        assert_eq!(dag.depth().unwrap(), 3);
    }

    #[test]
    fn independent_jobs_are_one_level() {
        let dag = JobDag::new((0..5).map(job).collect(), vec![]).unwrap();
        assert_eq!(dag.levels().unwrap().len(), 1);
        assert_eq!(dag.levels().unwrap()[0].len(), 5);
    }

    #[test]
    fn chain_is_one_job_per_level() {
        let edges = (0..4).map(|i| (JobId(i), JobId(i + 1))).collect();
        let dag = JobDag::new((0..5).map(job).collect(), edges).unwrap();
        assert_eq!(dag.depth().unwrap(), 5);
    }

    #[test]
    fn cycle_detected() {
        let err = JobDag::new(
            (0..3).map(job).collect(),
            vec![
                (JobId(0), JobId(1)),
                (JobId(1), JobId(2)),
                (JobId(2), JobId(0)),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, DagError::Cycle(_)));
    }

    #[test]
    fn self_loop_detected() {
        let err = JobDag::new(vec![job(0)], vec![(JobId(0), JobId(0))]).unwrap_err();
        assert!(matches!(err, DagError::Cycle(JobId(0))));
    }

    #[test]
    fn unknown_edge_endpoint_detected() {
        let err = JobDag::new(vec![job(0)], vec![(JobId(0), JobId(9))]).unwrap_err();
        assert_eq!(err, DagError::UnknownJob(JobId(9)));
    }

    #[test]
    fn duplicate_ids_detected() {
        let err = JobDag::new(vec![job(0), job(0)], vec![]).unwrap_err();
        assert_eq!(err, DagError::DuplicateJob(JobId(0)));
    }

    #[test]
    fn level_jobs_returns_specs_in_level_order() {
        let dag = JobDag::new((0..3).map(job).collect(), vec![(JobId(2), JobId(0))]).unwrap();
        let levels = dag.levels().unwrap();
        assert_eq!(levels[0], vec![JobId(1), JobId(2)]);
        let specs = dag.level_jobs(&levels[0]);
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].id, JobId(1));
        assert_eq!(specs[1].id, JobId(2));
    }
}
