//! The tape's order is the order of every sum. A parameter's gradient
//! is folded from its contributions in descending node id, then parent
//! order: the first moved in, each later one added with `axpy(1.0, ·)`
//! — whichever thread computed a term. `mlperf-autograd` holds the tape
//! to its serial walk with a proptest against a `#[cfg(test)]` oracle
//! this suite cannot reach, so here the fold is written out by hand for
//! one shared parameter and compared to the bit.

use mlperf_suite::autograd::Var;
use mlperf_suite::tensor::{Tensor, TensorRng};

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// `terms[0]` moved in, the rest added in order.
fn fold(terms: &[&Tensor]) -> Tensor {
    let mut sum = terms[0].clone();
    for t in &terms[1..] {
        sum.axpy(1.0, t);
    }
    sum
}

#[test]
fn shared_parameter_gradient_is_the_tape_order_fold() {
    let mut rng = TensorRng::new(30);
    let (w0, b0) = (rng.normal(&[4, 4], 0.0, 1.0), rng.normal(&[4], 0.0, 1.0));
    let (x1, x2) = (rng.normal(&[3, 4], 0.0, 1.0), rng.normal(&[3, 4], 0.0, 1.0));
    let m = rng.normal(&[4, 4], 0.0, 1.0);
    let (w, b) = (Var::param(w0), Var::param(b0));

    // Four nodes read `w`, created in this order; the first two hand
    // its gradient to the gradient worker as a job, the last two as a
    // computed tensor.
    let a = Var::constant(x1.clone()).matmul(&w);
    let ab = Var::constant(x2.clone()).matmul_bias(&w, &b);
    let rows = w.gather_rows(&[2, 0, 2]);
    let scaled = w.mul(&Var::constant(m.clone()));
    let loss = a.sum().add(&ab.sum()).add(&rows.sum()).add(&scaled.sum());
    loss.backward();
    loss.backward();

    // Every node's upstream gradient is ones; `w`'s terms arrive in
    // descending node id: `scaled`, `rows`, `ab`, `a`.
    let ones = Tensor::ones(&[3, 4]);
    let from_scaled = &Tensor::ones(&[4, 4]) * &m;
    let mut from_rows = Tensor::zeros(&[4, 4]);
    for r in [2, 0, 2] {
        for v in &mut from_rows.data_mut()[r * 4..(r + 1) * 4] {
            *v += 1.0;
        }
    }
    let from_ab = x2.matmul_atb(&ones);
    let from_a = x1.matmul_atb(&ones);
    let pass = fold(&[&from_scaled, &from_rows, &from_ab, &from_a]);
    // The second backward adds its sum into the first's.
    assert_eq!(bits(&w.grad().unwrap()), bits(&fold(&[&pass, &pass])));
    let bias = ones.sum_to(&[4]);
    assert_eq!(bits(&b.grad().unwrap()), bits(&fold(&[&bias, &bias])));

    // The check has teeth: creation order gives other bits.
    let reversed = fold(&[&from_a, &from_ab, &from_rows, &from_scaled]);
    assert_ne!(bits(&reversed), bits(&pass));
}
