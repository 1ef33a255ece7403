"""Host-throughput benchmark of the LBICA simulator (see README.md)."""
