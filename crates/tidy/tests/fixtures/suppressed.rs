//! Fixture: valid suppressions silence exactly the named check.

// tidy:allow(net-policy) -- fixture: sanctioned socket import, standalone form
use std::net::TcpListener;
use std::net::UdpSocket; // tidy:allow(net-policy) -- fixture: trailing form

pub fn documented() -> u32 {
    // tidy:allow(net-policy) -- fixture: documented socket boundary
    TcpListener::bind("127.0.0.1:0").map_or(0, |_| 1)
}
