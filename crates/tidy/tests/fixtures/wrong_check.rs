//! Fixture: a suppression for the wrong check silences nothing.

// tidy:allow(net-policy) -- fixture: wrong check on purpose
use std::collections::HashMap;
