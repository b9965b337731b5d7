//! Recurrent cells. GNMT (the suite's RNN representative) is built from
//! stacked LSTM cells.

use crate::Module;
use mlperf_autograd::Var;
use mlperf_tensor::{Tensor, TensorRng};

/// A single LSTM cell with combined gate projection.
///
/// Gate order in the packed `[.., 4*hidden]` projections is
/// input, forget, cell (candidate), output. The forget-gate bias is
/// initialized to 1, the standard trick for stable early training.
#[derive(Debug)]
pub struct LstmCell {
    wx: Var,
    wh: Var,
    bias: Var,
    input_size: usize,
    hidden_size: usize,
}

/// Hidden and cell state of an LSTM layer for one batch.
#[derive(Debug, Clone)]
pub struct LstmState {
    /// Hidden state `[batch, hidden]`.
    pub h: Var,
    /// Cell state `[batch, hidden]`.
    pub c: Var,
}

impl LstmCell {
    /// Creates a cell with Xavier-uniform projections.
    pub fn new(input_size: usize, hidden_size: usize, rng: &mut TensorRng) -> Self {
        let wx = rng.xavier_uniform(&[4 * hidden_size, input_size]).transpose();
        let wh = rng.xavier_uniform(&[4 * hidden_size, hidden_size]).transpose();
        let mut bias = Tensor::zeros(&[4 * hidden_size]);
        // Forget-gate slice starts after the input gate.
        bias.data_mut()[hidden_size..2 * hidden_size].fill(1.0);
        LstmCell {
            wx: Var::param(wx),
            wh: Var::param(wh),
            bias: Var::param(bias),
            input_size,
            hidden_size,
        }
    }

    /// Zeroed initial state for a batch.
    pub fn zero_state(&self, batch: usize) -> LstmState {
        LstmState {
            h: Var::constant(Tensor::zeros(&[batch, self.hidden_size])),
            c: Var::constant(Tensor::zeros(&[batch, self.hidden_size])),
        }
    }

    /// Advances one timestep: `x` is `[batch, input_size]`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or the state have mismatched widths.
    pub fn step(&self, x: &Var, state: &LstmState) -> LstmState {
        assert_eq!(
            x.shape()[1],
            self.input_size,
            "lstm expects input width {}, got {}",
            self.input_size,
            x.shape()[1]
        );
        let h = self.hidden_size;
        let gates = x.matmul(&self.wx).add(&state.h.matmul(&self.wh)).add(&self.bias);
        let i = gates.narrow(1, 0, h).sigmoid();
        let f = gates.narrow(1, h, h).sigmoid();
        let g = gates.narrow(1, 2 * h, h).tanh();
        let o = gates.narrow(1, 3 * h, h).sigmoid();
        let c = f.mul(&state.c).add(&i.mul(&g));
        let hh = o.mul(&c.tanh());
        LstmState { h: hh, c }
    }

    /// Runs the cell over a full sequence `[batch, time, input_size]`,
    /// returning all hidden states stacked as `[batch, time, hidden]`
    /// and the final state.
    pub fn run(&self, xs: &Var, init: &LstmState) -> (Var, LstmState) {
        let shape = xs.shape();
        assert_eq!(shape.len(), 3, "lstm run expects [batch, time, input]");
        let (batch, time, _) = (shape[0], shape[1], shape[2]);
        let mut state = init.clone();
        let mut outputs = Vec::with_capacity(time);
        for t in 0..time {
            let xt = xs.narrow(1, t, 1).reshape(&[batch, self.input_size]);
            state = self.step(&xt, &state);
            outputs.push(state.h.reshape(&[batch, 1, self.hidden_size]));
        }
        let refs: Vec<&Var> = outputs.iter().collect();
        (Var::concat(&refs, 1), state)
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }
}

impl Module for LstmCell {
    fn params(&self) -> Vec<Var> {
        vec![self.wx.clone(), self.wh.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn step_shapes_and_bounds() {
        let mut rng = TensorRng::new(0);
        let cell = LstmCell::new(3, 5, &mut rng);
        let state = cell.zero_state(2);
        let x = Var::constant(rng.normal(&[2, 3], 0.0, 1.0));
        let next = cell.step(&x, &state);
        assert_eq!(next.h.shape(), vec![2, 5]);
        assert_eq!(next.c.shape(), vec![2, 5]);
        // tanh(o * tanh(c)) keeps h in (-1, 1).
        assert!(next.h.value().data().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn run_stacks_time_steps() {
        let mut rng = TensorRng::new(1);
        let cell = LstmCell::new(2, 4, &mut rng);
        let xs = Var::constant(rng.normal(&[3, 6, 2], 0.0, 1.0));
        let (ys, last) = cell.run(&xs, &cell.zero_state(3));
        assert_eq!(ys.shape(), vec![3, 6, 4]);
        // Final slice of ys equals final hidden state.
        let tail = ys.value().narrow(1, 5, 1).reshape(&[3, 4]);
        assert_eq!(tail, last.h.value_clone());
    }

    #[test]
    fn gradients_flow_through_time() {
        let mut rng = TensorRng::new(2);
        let cell = LstmCell::new(2, 3, &mut rng);
        let xs = Var::constant(rng.normal(&[1, 4, 2], 0.0, 1.0));
        let (ys, _) = cell.run(&xs, &cell.zero_state(1));
        ys.sum().backward();
        for p in cell.params() {
            let g = p.grad().expect("grad missing");
            assert!(g.norm() > 0.0, "zero gradient through time");
        }
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = TensorRng::new(3);
        let cell = LstmCell::new(2, 3, &mut rng);
        let b = cell.params()[2].value_clone();
        assert_eq!(&b.data()[3..6], &[1.0, 1.0, 1.0]);
        assert_eq!(&b.data()[0..3], &[0.0, 0.0, 0.0]);
    }
}
